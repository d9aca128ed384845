#include "sched/cpu.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/kernel.hpp"

namespace rtdb::sched {
namespace {

using sim::Duration;
using sim::Kernel;
using sim::Priority;
using sim::ProcessId;
using sim::Task;
using sim::TimePoint;

Duration tu(std::int64_t n) { return Duration::units(n); }

// Highest priority = smallest key.
Priority prio(std::int64_t key) { return Priority{key, 0}; }

TEST(CpuTest, SingleJobRunsForItsWork) {
  Kernel k;
  PreemptiveCpu cpu{k};
  double done_at = -1;
  k.spawn("p", [](Kernel& k, PreemptiveCpu& cpu, double& done_at) -> Task<void> {
    co_await cpu.execute(Duration::units(10), Priority{1, 0});
    done_at = k.now().as_units();
  }(k, cpu, done_at));
  k.run();
  EXPECT_EQ(done_at, 10.0);
  EXPECT_EQ(cpu.busy_time(), tu(10));
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

TEST(CpuTest, ZeroWorkCompletesInstantly) {
  Kernel k;
  PreemptiveCpu cpu{k};
  bool done = false;
  k.spawn("p", [](Kernel& k, PreemptiveCpu& cpu, bool& done) -> Task<void> {
    co_await cpu.execute(Duration::zero(), Priority{1, 0});
    EXPECT_EQ(k.now(), TimePoint::origin());
    done = true;
  }(k, cpu, done));
  k.run();
  EXPECT_TRUE(done);
}

TEST(CpuTest, HigherPriorityPreemptsImmediately) {
  Kernel k;
  PreemptiveCpu cpu{k};
  std::vector<std::pair<std::string, double>> finish;
  auto job = [](Kernel& k, PreemptiveCpu& cpu, auto& finish, std::string name,
                Duration work, Priority p, Duration start_delay) -> Task<void> {
    co_await k.delay(start_delay);
    co_await cpu.execute(work, p);
    finish.emplace_back(name, k.now().as_units());
  };
  // Low priority starts at t=0 with 10tu of work; high priority arrives at
  // t=4 with 3tu. High finishes at 7, low at 13.
  k.spawn("low", job(k, cpu, finish, "low", tu(10), prio(20), tu(0)));
  k.spawn("high", job(k, cpu, finish, "high", tu(3), prio(10), tu(4)));
  k.run();
  ASSERT_EQ(finish.size(), 2u);
  EXPECT_EQ(finish[0], (std::pair<std::string, double>{"high", 7.0}));
  EXPECT_EQ(finish[1], (std::pair<std::string, double>{"low", 13.0}));
}

TEST(CpuTest, EqualPrioritiesRunInAdmissionOrder) {
  Kernel k;
  PreemptiveCpu cpu{k};
  std::vector<int> order;
  auto job = [](PreemptiveCpu& cpu, std::vector<int>& order, int id) -> Task<void> {
    co_await cpu.execute(Duration::units(5), Priority{7, 0});
    order.push_back(id);
  };
  for (int i = 0; i < 3; ++i) k.spawn("j", job(cpu, order, i));
  k.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(k.now().as_units(), 15.0);
}

TEST(CpuTest, MultiCoreRunsJobsInParallel) {
  Kernel k;
  PreemptiveCpu cpu{k, 2};
  std::vector<double> finish;
  auto job = [](Kernel& k, PreemptiveCpu& cpu, std::vector<double>& finish,
                Priority p) -> Task<void> {
    co_await cpu.execute(Duration::units(10), p);
    finish.push_back(k.now().as_units());
  };
  k.spawn("a", job(k, cpu, finish, prio(1)));
  k.spawn("b", job(k, cpu, finish, prio(2)));
  k.spawn("c", job(k, cpu, finish, prio(3)));
  k.run();
  // a and b run in parallel (finish at 10); c waits for a core (finish 20).
  EXPECT_EQ(finish, (std::vector<double>{10.0, 10.0, 20.0}));
  EXPECT_EQ(cpu.busy_time(), tu(30));
}

TEST(CpuTest, PreemptedJobResumesWithRemainingWork) {
  Kernel k;
  PreemptiveCpu cpu{k};
  double low_done = -1;
  k.spawn("low", [](Kernel& k, PreemptiveCpu& cpu, double& low_done) -> Task<void> {
    co_await cpu.execute(Duration::units(6), Priority{20, 0});
    low_done = k.now().as_units();
  }(k, cpu, low_done));
  k.spawn("high", [](Kernel& k, PreemptiveCpu& cpu) -> Task<void> {
    co_await k.delay(Duration::units(2));  // low has done 2 of 6
    co_await cpu.execute(Duration::units(5), Priority{10, 0});
    EXPECT_EQ(k.now().as_units(), 7.0);
  }(k, cpu));
  k.run();
  // low resumes at 7 with 4 remaining -> finishes at 11.
  EXPECT_EQ(low_done, 11.0);
}

TEST(CpuTest, SetPriorityBoostCausesPreemption) {
  Kernel k;
  PreemptiveCpu cpu{k};
  JobId low_job{};
  double low_done = -1;
  double mid_done = -1;
  k.spawn("mid", [](Kernel& k, PreemptiveCpu& cpu, double& mid_done) -> Task<void> {
    co_await cpu.execute(Duration::units(10), Priority{10, 0});
    mid_done = k.now().as_units();
  }(k, cpu, mid_done));
  k.spawn("low", [](Kernel& k, PreemptiveCpu& cpu, JobId& low_job,
                    double& low_done) -> Task<void> {
    co_await k.yield();
    co_await cpu.execute(Duration::units(4), Priority{20, 0}, &low_job);
    low_done = k.now().as_units();
  }(k, cpu, low_job, low_done));
  // At t=3 the low job inherits a very high priority (e.g. it blocks a
  // high-priority transaction) and must preempt mid.
  k.spawn("booster", [](Kernel& k, PreemptiveCpu& cpu, JobId& low_job) -> Task<void> {
    co_await k.delay(Duration::units(3));
    EXPECT_TRUE(cpu.job_active(low_job));  // ASSERT_* returns; not coroutine-safe
    cpu.set_priority(low_job, Priority{1, 0});
  }(k, cpu, low_job));
  k.run();
  EXPECT_EQ(low_done, 7.0);   // ran 3..7 after the boost
  EXPECT_EQ(mid_done, 14.0);  // 0..3 and 7..14
}

struct TimedJob {
  JobId id{};
  double done_at = -1;
};

// Executes `work` at `p` from `start`, recording the job id and finish time.
Task<void> run_job(Kernel& k, PreemptiveCpu& cpu, Duration start,
                   Duration work, Priority p, TimedJob& job) {
  co_await k.delay(start);
  co_await cpu.execute(work, p, &job.id);
  job.done_at = k.now().as_units();
}

TEST(CpuTest, LoweringRunningJobHandsCoreToWaiter) {
  Kernel k;
  PreemptiveCpu cpu{k};
  TimedJob a, b;
  k.spawn("a", run_job(k, cpu, tu(0), tu(10), prio(10), a));
  k.spawn("b", run_job(k, cpu, tu(0), tu(4), prio(20), b));
  k.schedule_in(tu(3), [&] { cpu.set_priority(a.id, prio(30)); });
  k.run();
  EXPECT_EQ(b.done_at, 7.0);   // took the core at 3
  EXPECT_EQ(a.done_at, 14.0);  // 0..3 and 7..14
}

TEST(CpuTest, KillingPreemptedJobKeepsRunnerFinishTime) {
  Kernel k;
  PreemptiveCpu cpu{k};
  TimedJob low, high;
  auto victim = k.spawn("low", run_job(k, cpu, tu(0), tu(10), prio(20), low));
  k.spawn("high", run_job(k, cpu, tu(2), tu(5), prio(10), high));
  k.schedule_in(tu(4), [&] { k.kill(victim); });
  k.run();
  EXPECT_EQ(high.done_at, 7.0);
  EXPECT_EQ(low.done_at, -1.0);
  EXPECT_EQ(cpu.busy_time(), tu(7));
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

TEST(CpuTest, BoostToRunnerPriorityKeepsAdmissionOrder) {
  Kernel k;
  PreemptiveCpu cpu{k};
  TimedJob first, second;
  k.spawn("first", run_job(k, cpu, tu(0), tu(5), prio(10), first));
  k.spawn("second", run_job(k, cpu, tu(0), tu(5), prio(20), second));
  // Equal priority: the earlier admission keeps the core.
  k.schedule_in(tu(2), [&] { cpu.set_priority(second.id, prio(10)); });
  k.run();
  EXPECT_EQ(first.done_at, 5.0);
  EXPECT_EQ(second.done_at, 10.0);
}

TEST(CpuTest, BoostToRunnerPriorityPreemptsLaterAdmission) {
  Kernel k;
  PreemptiveCpu cpu{k};
  TimedJob early, late;
  k.spawn("early", run_job(k, cpu, tu(0), tu(5), prio(20), early));
  k.spawn("late", run_job(k, cpu, tu(1), tu(5), prio(10), late));
  // At 2 the preempted, earlier-admitted job reaches the runner's priority
  // and wins the tie.
  k.schedule_in(tu(2), [&] { cpu.set_priority(early.id, prio(10)); });
  k.run();
  EXPECT_EQ(early.done_at, 6.0);  // 0..1 and 2..6
  EXPECT_EQ(late.done_at, 10.0);  // 1..2 and 6..10
}

TEST(CpuTest, SetPriorityOnStaleIdIsIgnored) {
  Kernel k;
  PreemptiveCpu cpu{k};
  JobId job{};
  k.spawn("p", [](PreemptiveCpu& cpu, JobId& job) -> Task<void> {
    co_await cpu.execute(Duration::units(1), Priority{1, 0}, &job);
  }(cpu, job));
  k.run();
  EXPECT_FALSE(cpu.job_active(job));
  cpu.set_priority(job, Priority{0, 0});  // must not crash or disturb anything
}

TEST(CpuTest, KilledJobFreesTheCore) {
  Kernel k;
  PreemptiveCpu cpu{k};
  double other_done = -1;
  ProcessId victim = k.spawn("victim", [](PreemptiveCpu& cpu) -> Task<void> {
    co_await cpu.execute(Duration::units(100), Priority{1, 0});
    ADD_FAILURE() << "victim must not complete";
  }(cpu));
  k.spawn("other", [](Kernel& k, PreemptiveCpu& cpu, double& done) -> Task<void> {
    co_await cpu.execute(Duration::units(10), Priority{2, 0});
    done = k.now().as_units();
  }(k, cpu, other_done));
  k.spawn("killer", [](Kernel& k, ProcessId victim) -> Task<void> {
    co_await k.delay(Duration::units(5));
    k.kill(victim);
  }(k, victim));
  k.run();
  // Other waited 5tu behind the victim, then ran its 10tu.
  EXPECT_EQ(other_done, 15.0);
  EXPECT_EQ(cpu.active_jobs(), 0u);
}

TEST(CpuTest, BusyTimeExcludesIdleGaps) {
  Kernel k;
  PreemptiveCpu cpu{k};
  k.spawn("p", [](Kernel& k, PreemptiveCpu& cpu) -> Task<void> {
    co_await cpu.execute(Duration::units(4), Priority{1, 0});
    co_await k.delay(Duration::units(10));  // idle gap
    co_await cpu.execute(Duration::units(6), Priority{1, 0});
  }(k, cpu));
  k.run();
  EXPECT_EQ(cpu.busy_time(), tu(10));
  EXPECT_EQ(k.now().as_units(), 20.0);
}

TEST(CpuTest, ManyPreemptionsPreserveTotalWork) {
  Kernel k;
  PreemptiveCpu cpu{k};
  int done = 0;
  auto job = [](PreemptiveCpu& cpu, int& done, std::int64_t key) -> Task<void> {
    co_await cpu.execute(Duration::units(7), Priority{key, 0});
    ++done;
  };
  // Arrivals in increasing priority => each new arrival preempts.
  for (int i = 0; i < 10; ++i) {
    k.spawn("j", [](Kernel& k, PreemptiveCpu& cpu, int& done, int i,
                    auto job) -> Task<void> {
      co_await k.delay(Duration::units(i));
      co_await job(cpu, done, 100 - i);
    }(k, cpu, done, i, job));
  }
  k.run();
  EXPECT_EQ(done, 10);
  EXPECT_EQ(cpu.busy_time(), tu(70));
  EXPECT_EQ(k.now().as_units(), 70.0);  // work conserved, no idle
}

}  // namespace
}  // namespace rtdb::sched
