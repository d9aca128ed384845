#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace rtdb::sim {
namespace {

TEST(TaskTest, ValueTaskReturnsResult) {
  Kernel k;
  int got = 0;
  auto produce = []() -> Task<int> { co_return 42; };
  k.spawn("p", [](int& got, auto produce) -> Task<void> {
    got = co_await produce();
  }(got, produce));
  k.run();
  EXPECT_EQ(got, 42);
}

TEST(TaskTest, MoveOnlyResult) {
  Kernel k;
  int got = 0;
  auto produce = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(7);
  };
  k.spawn("p", [](int& got, auto produce) -> Task<void> {
    auto p = co_await produce();
    got = *p;
  }(got, produce));
  k.run();
  EXPECT_EQ(got, 7);
}

TEST(TaskTest, DeepNestingPropagatesValuesAndSuspensions) {
  Kernel k;
  int got = 0;
  // Recursively nested coroutines, each suspending once.
  struct Nest {
    static Task<int> down(Kernel& k, int depth) {
      co_await k.delay(Duration::units(1));
      if (depth == 0) co_return 1;
      co_return 1 + co_await down(k, depth - 1);
    }
  };
  k.spawn("p", [](Kernel& k, int& got) -> Task<void> {
    got = co_await Nest::down(k, 20);
    EXPECT_EQ(k.now().as_units(), 21.0);  // each level delayed 1tu
  }(k, got));
  k.run();
  EXPECT_EQ(got, 21);
}

TEST(TaskTest, ExceptionFromValueTaskPropagates) {
  Kernel k;
  bool caught = false;
  auto produce = []() -> Task<int> {
    throw std::runtime_error("no value");
    co_return 0;
  };
  k.spawn("p", [](bool& caught, auto produce) -> Task<void> {
    try {
      (void)co_await produce();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(caught, produce));
  k.run();
  EXPECT_TRUE(caught);
}

TEST(TaskTest, MoveTransfersOwnership) {
  auto body = []() -> Task<void> { co_return; };
  Task<void> a = body();
  EXPECT_TRUE(a.valid());
  Task<void> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting it
  EXPECT_TRUE(b.valid());
  Task<void> c;
  c = std::move(b);
  EXPECT_FALSE(b.valid());
  EXPECT_TRUE(c.valid());
}

TEST(TaskTest, DestroyingUnstartedTaskIsSafe) {
  bool ran = false;
  {
    auto body = [](bool& ran) -> Task<void> {
      ran = true;
      co_return;
    };
    Task<void> t = body(ran);
    // never started, never awaited
  }
  EXPECT_FALSE(ran);
}

TEST(TaskTest, CancellationUnwindsNestedFrames) {
  Kernel k;
  // What each local saw as it was destroyed.
  struct Death {
    std::string name;
    bool victim_current = false;
    bool victim_alive = false;
  };
  std::vector<Death> deaths;
  struct Guard {
    Kernel& k;
    std::vector<Death>& deaths;
    std::string name;
    ProcessId owner = k.current()->id();
    ~Guard() {
      deaths.push_back(Death{name,
                             k.current() != nullptr &&
                                 k.current()->id() == owner,
                             k.alive(owner)});
    }
  };
  auto inner = [](Kernel& k, std::vector<Death>& deaths) -> Task<void> {
    Guard first{k, deaths, "inner-first"};
    Guard second{k, deaths, "inner-second"};
    co_await k.delay(Duration::units(100));
  };
  ProcessId victim = k.spawn(
      "victim",
      [](Kernel& k, std::vector<Death>& deaths, auto inner) -> Task<void> {
        Guard g{k, deaths, "outer"};
        co_await inner(k, deaths);
      }(k, deaths, inner));
  k.spawn("killer", [](Kernel& k, ProcessId victim,
                       std::vector<Death>& deaths) -> Task<void> {
    co_await k.delay(Duration::units(1));
    k.kill(victim);
    EXPECT_EQ(deaths.size(), 3u);  // every frame is gone when kill returns
    EXPECT_FALSE(k.alive(victim));
  }(k, victim, deaths));
  k.run();
  // Innermost first: the awaited frame's locals in reverse order, then the
  // awaiting frame's; the victim is current and alive throughout.
  ASSERT_EQ(deaths.size(), 3u);
  EXPECT_EQ(deaths[0].name, "inner-second");
  EXPECT_EQ(deaths[1].name, "inner-first");
  EXPECT_EQ(deaths[2].name, "outer");
  for (const Death& death : deaths) {
    EXPECT_TRUE(death.victim_current) << death.name;
    EXPECT_TRUE(death.victim_alive) << death.name;
  }
}

}  // namespace
}  // namespace rtdb::sim
