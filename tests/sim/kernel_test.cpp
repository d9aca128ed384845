#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/semaphore.hpp"

namespace rtdb::sim {
namespace {

Duration tu(std::int64_t n) { return Duration::units(n); }

TEST(KernelTest, ClockStartsAtOrigin) {
  Kernel k;
  EXPECT_EQ(k.now(), TimePoint::origin());
}

TEST(KernelTest, DelayAdvancesVirtualTime) {
  Kernel k;
  std::vector<double> times;
  k.spawn("p", [](Kernel& k, std::vector<double>& times) -> Task<void> {
    times.push_back(k.now().as_units());
    co_await k.delay(Duration::units(5));
    times.push_back(k.now().as_units());
    co_await k.delay(Duration::units(7));
    times.push_back(k.now().as_units());
  }(k, times));
  k.run();
  EXPECT_EQ(times, (std::vector<double>{0.0, 5.0, 12.0}));
  EXPECT_EQ(k.now().as_units(), 12.0);
  EXPECT_EQ(k.live_process_count(), 0u);
}

TEST(KernelTest, ProcessesInterleaveDeterministically) {
  Kernel k;
  std::vector<std::string> log;
  auto worker = [](Kernel& k, std::vector<std::string>& log, std::string name,
                   std::int64_t step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await k.delay(Duration::units(step));
      log.push_back(name + std::to_string(i));
    }
  };
  k.spawn("a", worker(k, log, "a", 2));
  k.spawn("b", worker(k, log, "b", 3));
  k.run();
  // a at 2,4,6; b at 3,6,9; at t=6 a scheduled its delay first.
  EXPECT_EQ(log, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(KernelTest, RunUntilStopsAtDeadline) {
  Kernel k;
  int ticks = 0;
  k.spawn("p", [](Kernel& k, int& ticks) -> Task<void> {
    for (;;) {
      co_await k.delay(Duration::units(10));
      ++ticks;
    }
  }(k, ticks));
  k.run_until(TimePoint::origin() + tu(35));
  EXPECT_EQ(ticks, 3);
  EXPECT_EQ(k.now(), TimePoint::origin() + tu(35));
  k.run_for(tu(10));
  EXPECT_EQ(ticks, 4);
}

void stamp(Kernel& k, std::vector<std::string>& log, const std::string& what) {
  log.push_back(what + "@" +
                std::to_string(k.now().as_ticks() / kTicksPerUnit));
}

TEST(KernelTest, EventsAfterRunUntilJumpFireInTimeAndScheduleOrder) {
  // run_until moves the clock past the last event, as rt::RtLockTable does
  // to its private kernel. Wakes at the new instant and events a constant
  // delay after it are then not same-instant with the last event fired;
  // they still fire in (time, schedule) order.
  Kernel k;
  Semaphore sem{k, 0};
  std::vector<std::string> log;
  for (int i = 0; i < 2; ++i) {
    k.spawn("w", [](Kernel& k, Semaphore& sem, std::vector<std::string>& log,
                    std::string name) -> Task<void> {
      co_await sem.acquire();
      stamp(k, log, name);
      for (int j = 0; j < 2; ++j) {
        co_await k.delay(tu(1));
        stamp(k, log, name + "+" + std::to_string(j));
      }
    }(k, sem, log, "w" + std::to_string(i)));
  }
  k.schedule_at(TimePoint::origin() + tu(2), [&] { stamp(k, log, "e"); });
  k.run_until(TimePoint::origin() + tu(10));
  EXPECT_EQ(k.now(), TimePoint::origin() + tu(10));
  k.schedule_in(tu(1), [&] { stamp(k, log, "d1"); });
  sem.release(2);
  k.schedule_in(Duration::zero(), [&] { stamp(k, log, "z"); });
  k.schedule_in(tu(1), [&] { stamp(k, log, "d2"); });
  k.run();
  EXPECT_EQ(log, (std::vector<std::string>{
                     "e@2", "w0@10", "w1@10", "z@10", "d1@11", "d2@11",
                     "w0+0@11", "w1+0@11", "w0+1@12", "w1+1@12"}));
}

TEST(KernelTest, NestedTasksPropagateValuesAndTime) {
  Kernel k;
  int result = 0;
  auto inner = [](Kernel& k) -> Task<int> {
    co_await k.delay(Duration::units(4));
    co_return 42;
  };
  k.spawn("p", [](Kernel& k, int& result,
                  auto inner) -> Task<void> {
    result = co_await inner(k);
    result += static_cast<int>(k.now().as_units());
  }(k, result, inner));
  k.run();
  EXPECT_EQ(result, 46);
}

TEST(KernelTest, NestedTaskExceptionsPropagate) {
  Kernel k;
  bool caught = false;
  auto thrower = []() -> Task<void> {
    throw std::runtime_error("boom");
    co_return;  // unreachable; makes this a coroutine
  };
  k.spawn("p", [](bool& caught, auto thrower) -> Task<void> {
    try {
      co_await thrower();
    } catch (const std::runtime_error&) {
      caught = true;
    }
  }(caught, thrower));
  k.run();
  EXPECT_TRUE(caught);
}

TEST(KernelTest, UncaughtExceptionEscapesRun) {
  Kernel k;
  k.spawn("p", []() -> Task<void> {
    throw std::logic_error("bug");
    co_return;
  }());
  EXPECT_THROW(k.run(), std::logic_error);
}

TEST(KernelTest, KillBlockedProcessUnwindsImmediately) {
  Kernel k;
  bool cleanup_ran = false;
  bool finished = false;
  struct Guard {
    bool& flag;
    ~Guard() { flag = true; }
  };
  ProcessId victim = k.spawn(
      "victim", [](Kernel& k, bool& cleanup_ran, bool& finished) -> Task<void> {
        Guard g{cleanup_ran};
        co_await k.delay(Duration::units(100));
        finished = true;
      }(k, cleanup_ran, finished));
  k.spawn("killer", [](Kernel& k, ProcessId victim) -> Task<void> {
    co_await k.delay(Duration::units(5));
    k.kill(victim);
    // Kill is synchronous: after it returns the victim is gone.
    EXPECT_FALSE(k.alive(victim));
  }(k, victim));
  k.run();
  EXPECT_TRUE(cleanup_ran);
  EXPECT_FALSE(finished);
  EXPECT_EQ(k.now().as_units(), 5.0);  // the 100tu delay was cancelled
}

TEST(KernelTest, KillBeforeStartNeverRuns) {
  Kernel k;
  bool ran = false;
  ProcessId p = k.spawn("p", [](bool& ran) -> Task<void> {
    ran = true;
    co_return;
  }(ran));
  k.kill(p);
  k.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(k.alive(p));
}

TEST(KernelTest, KillIsIdempotent) {
  Kernel k;
  ProcessId p = k.spawn("p", [](Kernel& k) -> Task<void> {
    co_await k.delay(Duration::units(10));
  }(k));
  k.spawn("killer", [](Kernel& k, ProcessId p) -> Task<void> {
    co_await k.yield();
    k.kill(p);
    k.kill(p);  // second kill is a no-op
    co_return;
  }(k, p));
  k.run();
  EXPECT_FALSE(k.alive(p));
}

// A kill destroys the blocked process in place: nothing after its
// suspension point runs, not even a handler written to catch the kill.
TEST(KernelTest, KilledProcessRunsNothingAfterSuspensionPoint) {
  Kernel k;
  int steps = 0;
  bool caught = false;
  ProcessId p = k.spawn(
      "p", [](Kernel& k, int& steps, bool& caught) -> Task<void> {
        try {
          co_await k.delay(Duration::units(50));
          ++steps;
        } catch (...) {
          caught = true;
        }
        ++steps;
      }(k, steps, caught));
  k.spawn("killer", [](Kernel& k, ProcessId p) -> Task<void> {
    co_await k.delay(Duration::units(1));
    k.kill(p);
  }(k, p));
  k.run();
  EXPECT_EQ(steps, 0);
  EXPECT_FALSE(caught);
  EXPECT_FALSE(k.alive(p));
  EXPECT_EQ(k.live_process_count(), 0u);
  EXPECT_EQ(k.now().as_units(), 1.0);  // the 50tu delay was cancelled
}

// Killing the running process itself throws ProcessCancelled inside it;
// the unwind runs its destructors and ends it without escaping run().
TEST(KernelTest, SelfKillUnwindsTheRunningProcess) {
  Kernel k;
  bool cleanup_ran = false;
  bool finished = false;
  struct Guard {
    bool& flag;
    ~Guard() { flag = true; }
  };
  ProcessId p = k.spawn(
      "p", [](Kernel& k, bool& cleanup_ran, bool& finished) -> Task<void> {
        Guard g{cleanup_ran};
        co_await k.delay(Duration::units(1));
        k.kill(k.current()->id());
        finished = true;
      }(k, cleanup_ran, finished));
  EXPECT_NO_THROW(k.run());
  EXPECT_TRUE(cleanup_ran);
  EXPECT_FALSE(finished);
  EXPECT_FALSE(k.alive(p));
}

// The Cleanup -> abort hook -> kill chain of the protocols: a destructor
// running in a dying process kills a second blocked process. Each victim
// is current while its own frames die, and both frame chains are gone
// before the outer kill returns.
TEST(KernelTest, DestructorOfKilledProcessKillsAnother) {
  Kernel k;
  Semaphore sem{k, 0};
  std::vector<std::string> log;
  ProcessId second{};
  struct KillOnExit {
    Kernel& k;
    std::vector<std::string>& log;
    ProcessId& other;
    ~KillOnExit() {
      log.push_back("first dies in " + k.current()->name());
      k.kill(other);
      log.push_back("first resumes dying in " + k.current()->name());
    }
  };
  struct LogOnExit {
    Kernel& k;
    std::vector<std::string>& log;
    ~LogOnExit() { log.push_back("second dies in " + k.current()->name()); }
  };
  auto first_body = [](Kernel& k, std::vector<std::string>& log,
                       ProcessId& second) -> Task<void> {
    KillOnExit guard{k, log, second};
    co_await k.delay(Duration::units(100));
  };
  auto second_body = [](Kernel& k, Semaphore& sem,
                        std::vector<std::string>& log) -> Task<void> {
    LogOnExit guard{k, log};
    co_await sem.acquire();
  };
  auto killer_body = [](Kernel& k, Semaphore& sem, ProcessId first,
                        ProcessId second,
                        std::vector<std::string>& log) -> Task<void> {
    co_await k.delay(Duration::units(1));
    EXPECT_EQ(sem.waiter_count(), 1u);
    k.kill(first);
    const std::vector<std::string> expected{"first dies in first",
                                            "second dies in second",
                                            "first resumes dying in first"};
    EXPECT_EQ(log, expected);
    EXPECT_FALSE(k.alive(first));
    EXPECT_FALSE(k.alive(second));
    EXPECT_EQ(sem.waiter_count(), 0u);
    EXPECT_EQ(k.current()->name(), "killer");
  };
  const ProcessId first = k.spawn("first", first_body(k, log, second));
  second = k.spawn("second", second_body(k, sem, log));
  k.spawn("killer", killer_body(k, sem, first, second, log));
  k.run();
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(k.live_process_count(), 0u);
}

TEST(KernelTest, ScheduledCallbackRunsAtRequestedTime) {
  Kernel k;
  double fired_at = -1;
  k.schedule_in(tu(9), [&] { fired_at = k.now().as_units(); });
  k.run();
  EXPECT_EQ(fired_at, 9.0);
}

TEST(KernelTest, CancelledEventDoesNotFire) {
  Kernel k;
  bool fired = false;
  EventId id = k.schedule_in(tu(3), [&] { fired = true; });
  EXPECT_TRUE(k.cancel_event(id));
  k.run();
  EXPECT_FALSE(fired);
}

TEST(KernelTest, YieldRunsOthersAtSameInstant) {
  Kernel k;
  std::vector<int> order;
  k.spawn("a", [](Kernel& k, std::vector<int>& order) -> Task<void> {
    order.push_back(1);
    co_await k.yield();
    order.push_back(3);
  }(k, order));
  k.spawn("b", [](std::vector<int>& order) -> Task<void> {
    order.push_back(2);
    co_return;
  }(order));
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(k.now(), TimePoint::origin());
}

TEST(KernelTest, ProcessNamesAreRecorded) {
  Kernel k;
  ProcessId p = k.spawn("txn-17", []() -> Task<void> { co_return; }());
  EXPECT_EQ(k.process_name(p), "txn-17");
}

TEST(KernelTest, EventsExecutedCounter) {
  Kernel k;
  for (int i = 0; i < 5; ++i) k.schedule_in(tu(i), [] {});
  k.run();
  EXPECT_EQ(k.events_executed(), 5u);
}

// A process killed while a wake is already pending (here: its delay expires
// at the same instant the killer acts) must still unwind exactly once.
TEST(KernelTest, KillRacingWithPendingWake) {
  Kernel k;
  bool finished = false;
  ProcessId p = k.spawn("p", [](Kernel& k, bool& finished) -> Task<void> {
    co_await k.delay(Duration::units(5));
    finished = true;
  }(k, finished));
  // Killer runs at t=5 as well, scheduled after the delay's own event.
  k.spawn("killer", [](Kernel& k, ProcessId p) -> Task<void> {
    co_await k.delay(Duration::units(5));
    k.kill(p);
  }(k, p));
  k.run();
  // The delay event fired first (earlier schedule), so the process finished
  // before the killer ran; kill on a finished process is a no-op.
  EXPECT_TRUE(finished);
}

}  // namespace
}  // namespace rtdb::sim
