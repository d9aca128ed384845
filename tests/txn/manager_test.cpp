#include "txn/manager.hpp"

#include <gtest/gtest.h>

#include "cc/pcp.hpp"
#include "cc/two_phase.hpp"
#include "core/executor.hpp"
#include "db/database.hpp"
#include "db/resource_manager.hpp"
#include "sched/cpu.hpp"
#include "sched/disk.hpp"
#include "sim/kernel.hpp"
#include "stats/metrics.hpp"

namespace rtdb::txn {
namespace {

using sim::Duration;
using sim::TimePoint;

Duration tu(std::int64_t n) { return Duration::units(n); }
TimePoint at(std::int64_t n) { return TimePoint::origin() + tu(n); }

// One single-site system with a pluggable controller.
template <typename Controller>
struct Site {
  sim::Kernel k;
  db::Database schema{db::DatabaseConfig{20, 1, db::Placement::kSingleSite}};
  sched::PreemptiveCpu cpu{k};
  sched::IoSubsystem io{k, sched::IoSubsystem::kUnlimited};
  db::ResourceManager rm{k, schema, 0, io, tu(1)};
  Controller cc;
  cc::HistoryRecorder history;
  core::Executor executor{
      core::Executor::Services{&k, &cpu, &rm, &cc, &history},
      core::Executor::Costs{tu(2), true}};
  stats::PerformanceMonitor monitor;
  TransactionManager tm{k, cc, executor, monitor};

  template <typename... Args>
  explicit Site(Args&&... args) : cc(k, std::forward<Args>(args)...) {
    tm.connect_cpu(cpu);
  }

  TransactionSpec spec(std::uint64_t id, std::vector<cc::Operation> ops,
                       std::int64_t deadline_units) {
    TransactionSpec s;
    s.id = db::TxnId{id};
    s.access = cc::AccessSet::from_operations(std::move(ops));
    s.read_only = s.access.read_only();
    s.arrival = k.now();
    s.deadline = at(deadline_units);
    s.priority = sim::Priority{s.deadline.as_ticks(),
                               static_cast<std::uint32_t>(id)};
    return s;
  }
};

using Pcp = Site<cc::PriorityCeiling>;
using TplSite = Site<cc::TwoPhaseLocking>;

TEST(TxnManagerTest, SingleTransactionCommits) {
  Pcp s{20u};
  // 2 objects: per object 1tu read I/O + 2tu CPU; commit writes 2x1tu I/O.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}, {1, cc::LockMode::kWrite}},
                     100));
  s.k.run();
  EXPECT_EQ(s.monitor.committed(), 1u);
  EXPECT_EQ(s.monitor.missed(), 0u);
  const auto* r = s.monitor.find(db::TxnId{1});
  EXPECT_TRUE(r->committed);
  EXPECT_EQ(r->finish, at(8));  // 2*(1+2) + 2*1
  EXPECT_EQ(s.tm.live_count(), 0u);
  EXPECT_TRUE(s.history.conflict_serializable());
}

TEST(TxnManagerTest, ReadOnlyTransactionSkipsCommitWrites) {
  Pcp s{20u};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kRead}}, 100));
  s.k.run();
  EXPECT_EQ(s.monitor.find(db::TxnId{1})->finish, at(3));  // 1 I/O + 2 CPU
  EXPECT_EQ(s.rm.writes(), 0u);
}

TEST(TxnManagerTest, DeadlineMissAbortsAndDisappears) {
  Pcp s{20u};
  // Needs 8tu, deadline at 5: hard miss.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}, {1, cc::LockMode::kWrite}},
                     5));
  s.k.run();
  EXPECT_EQ(s.monitor.committed(), 0u);
  EXPECT_EQ(s.monitor.missed(), 1u);
  const auto* r = s.monitor.find(db::TxnId{1});
  EXPECT_TRUE(r->missed_deadline);
  EXPECT_EQ(r->finish, at(5));  // aborted exactly at the deadline
  EXPECT_EQ(s.tm.live_count(), 0u);
  EXPECT_EQ(s.tm.deadline_kills(), 1u);
  // Its locks were released; protocol state is clean.
  EXPECT_EQ(s.cc.active_transactions(), 0u);
}

TEST(TxnManagerTest, MissedTransactionReleasesLocksForOthers) {
  Pcp s{20u};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 2));  // will miss at 2
  s.tm.submit(s.spec(2, {{0, cc::LockMode::kWrite}}, 100));
  s.k.run();
  EXPECT_EQ(s.monitor.missed(), 1u);
  EXPECT_EQ(s.monitor.committed(), 1u);
  const auto* r2 = s.monitor.find(db::TxnId{2});
  EXPECT_TRUE(r2->committed);
}

TEST(TxnManagerTest, PercentMissedFormula) {
  Pcp s{20u};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}}, 1));  // miss
  s.tm.submit(s.spec(3, {{2, cc::LockMode::kWrite}}, 100));
  s.tm.submit(s.spec(4, {{3, cc::LockMode::kWrite}}, 1));  // miss
  s.k.run();
  auto m = stats::Metrics::compute(s.monitor.records(), s.k.now() - TimePoint::origin());
  EXPECT_EQ(m.processed, 4u);
  EXPECT_EQ(m.missed, 2u);
  EXPECT_DOUBLE_EQ(m.pct_missed, 50.0);
}

TEST(TxnManagerTest, DeadlockVictimRestartsAndCommits) {
  TplSite s{cc::TwoPhaseLocking::Options{}};
  // Classic crossing pattern; the victim must restart and both commit.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}, {1, cc::LockMode::kWrite}},
                     500));
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}, {0, cc::LockMode::kWrite}},
                     500));
  s.k.run();
  EXPECT_EQ(s.monitor.committed(), 2u);
  EXPECT_EQ(s.cc.deadlocks(), 1u);
  EXPECT_EQ(s.tm.restarts(), 1u);
  const auto* victim = s.monitor.find(db::TxnId{2});
  const auto* other = s.monitor.find(db::TxnId{1});
  EXPECT_EQ(victim->aborts + other->aborts, 1u);
  EXPECT_TRUE(s.history.conflict_serializable());
}

TEST(TxnManagerTest, RestartBackoffPastDeadlineBecomesMiss) {
  TplSite s{cc::TwoPhaseLocking::Options{}};
  // Both transactions deadlock around t=6..8; give one a deadline so tight
  // that its restart cannot be scheduled.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}, {1, cc::LockMode::kWrite}},
                     500));
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}, {0, cc::LockMode::kWrite}},
                     7));
  s.k.run();
  // Whatever the deadlock resolution order, nothing may be left live and
  // every record must be processed.
  EXPECT_EQ(s.tm.live_count(), 0u);
  EXPECT_EQ(s.monitor.processed(), 2u);
  EXPECT_TRUE(s.history.conflict_serializable());
}

// The paper's §3.1 priority-inversion example, end to end with real CPU
// preemption: T3 (low) locks O1; T1 (high) preempts and blocks on O1; T2
// (medium, touching nothing shared) must not be able to delay T1
// indefinitely under the ceiling protocol, because T3 inherits T1's
// priority and outruns T2.
TEST(TxnManagerTest, PriorityInversionBoundedByInheritance) {
  Pcp s{20u};
  // T3 arrives first, locks object 0, computes for a long time.
  TransactionSpec t3 = s.spec(3, {{0, cc::LockMode::kWrite}}, 400);
  t3.priority = sim::Priority{300, 3};  // lowest
  s.tm.submit(t3);
  // T2: medium priority, long CPU burn on an unrelated object, arrives at 1.
  s.k.schedule_in(tu(1), [&s] {
    TransactionSpec t2 = s.spec(
        2, {{5, cc::LockMode::kWrite}, {6, cc::LockMode::kWrite},
            {7, cc::LockMode::kWrite}, {8, cc::LockMode::kWrite}}, 400);
    t2.priority = sim::Priority{200, 2};
    s.tm.submit(t2);
  });
  // T1: highest priority, needs object 0, arrives at 2.
  s.k.schedule_in(tu(2), [&s] {
    TransactionSpec t1 = s.spec(1, {{0, cc::LockMode::kWrite}}, 400);
    t1.priority = sim::Priority{100, 1};
    s.tm.submit(t1);
  });
  s.k.run();
  EXPECT_EQ(s.monitor.committed(), 3u);
  const auto* r1 = s.monitor.find(db::TxnId{1});
  const auto* r2 = s.monitor.find(db::TxnId{2});
  // T1 finished before T2 despite T3 holding its lock: inheritance let T3
  // complete ahead of the medium-priority CPU hog.
  EXPECT_LT(r1->finish.as_units(), r2->finish.as_units());
}

TEST(TxnManagerTest, AbortAllDrainsCleanly) {
  Pcp s{20u};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 1000));
  s.tm.submit(s.spec(2, {{0, cc::LockMode::kWrite}}, 1000));
  s.k.run_until(at(1));  // mid-flight
  s.tm.abort_all();
  EXPECT_EQ(s.tm.live_count(), 0u);
  EXPECT_EQ(s.cc.active_transactions(), 0u);
  s.k.run();  // no stray events blow up
}

TEST(TxnManagerTest, BlockedTimeIsRecorded) {
  Pcp s{20u};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 1000));
  s.k.schedule_in(tu(1), [&s] {
    s.tm.submit(s.spec(2, {{0, cc::LockMode::kWrite}}, 1000));
  });
  s.k.run();
  const auto* r2 = s.monitor.find(db::TxnId{2});
  EXPECT_TRUE(r2->committed);
  EXPECT_GT(r2->blocked, Duration::zero());
}

}  // namespace
}  // namespace rtdb::txn
