// Deadline-aware admission control: doomed arrivals are shed at submit
// time (before any attempt burns CPU), a bounded FIFO queue smooths bursts
// past the max_running cap, queue waits past the deadline are honest
// misses, and the per-class response estimate tracks committed responses.
// With admission disabled the manager must behave exactly as before.

#include "txn/manager.hpp"

#include <gtest/gtest.h>

#include "cc/pcp.hpp"
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

// Single-site PCP system; timings as in manager_test: an n-object write
// transaction takes n*(1tu read I/O + 2tu CPU) + n*1tu commit I/O.
struct Site {
  sim::Kernel k;
  db::Database schema{db::DatabaseConfig{20, 1, db::Placement::kSingleSite}};
  sched::PreemptiveCpu cpu{k};
  sched::IoSubsystem io{k, sched::IoSubsystem::kUnlimited};
  db::ResourceManager rm{k, schema, 0, io, tu(1)};
  cc::PriorityCeiling cc{k, 20u};
  cc::HistoryRecorder history;
  core::Executor executor{
      core::Executor::Services{&k, &cpu, &rm, &cc, &history},
      core::Executor::Costs{tu(2), true}};
  stats::PerformanceMonitor monitor;
  TransactionManager tm;

  explicit Site(AdmissionConfig admission)
      : tm(k, cc, executor, monitor,
           TransactionManager::Options{admission}) {
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

AdmissionConfig enabled_config() {
  AdmissionConfig a;
  a.enabled = true;
  a.initial_estimate_per_object = tu(4);  // the true 1-object response
  return a;
}

TEST(AdmissionTest, DisabledConfigAdmitsEverything) {
  Site s{AdmissionConfig{}};
  // Hopelessly tight deadline: without admission control it is admitted,
  // runs, and misses — the pre-admission behaviour.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 2));
  s.k.run();
  EXPECT_EQ(s.tm.admitted(), 1u);
  EXPECT_EQ(s.tm.shed(), 0u);
  EXPECT_EQ(s.monitor.missed(), 1u);
  EXPECT_EQ(s.monitor.shed(), 0u);
}

TEST(AdmissionTest, ShedsArrivalWithSlackBelowTheEstimate) {
  Site s{enabled_config()};
  // Slack 2tu < estimated 4tu: shed at arrival — no attempt, no watchdog,
  // no deadline miss, nothing ever runs.
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 2));
  EXPECT_EQ(s.tm.live_count(), 0u);
  s.k.run();
  EXPECT_EQ(s.tm.shed(), 1u);
  EXPECT_EQ(s.tm.admitted(), 0u);
  EXPECT_EQ(s.tm.deadline_kills(), 0u);
  EXPECT_EQ(s.monitor.missed(), 0u);
  EXPECT_EQ(s.monitor.shed(), 1u);
  ASSERT_NE(s.monitor.find(db::TxnId{1}), nullptr);
  EXPECT_TRUE(s.monitor.find(db::TxnId{1})->shed);
  // Shed transactions are not "processed": they do not poison the miss
  // percentage of admitted work.
  const auto m = stats::Metrics::compute(s.monitor.records(),
                                         s.k.now() - TimePoint::origin());
  EXPECT_EQ(m.processed, 0u);
}

TEST(AdmissionTest, AdmitsWhenSlackCoversTheEstimate) {
  Site s{enabled_config()};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));
  s.k.run();
  EXPECT_EQ(s.tm.admitted(), 1u);
  EXPECT_EQ(s.tm.shed(), 0u);
  EXPECT_EQ(s.monitor.committed(), 1u);
}

TEST(AdmissionTest, BurstPastTheQueueLimitIsShedInArrivalOrder) {
  AdmissionConfig a = enabled_config();
  a.max_running = 1;
  a.queue_limit = 1;
  Site s{a};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));  // runs
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}}, 100));  // queued
  s.tm.submit(s.spec(3, {{2, cc::LockMode::kWrite}}, 100));  // overflow: shed
  EXPECT_EQ(s.tm.admission_queue_depth(), 1u);
  EXPECT_EQ(s.tm.shed(), 1u);
  EXPECT_TRUE(s.monitor.find(db::TxnId{3})->shed);
  s.k.run();
  EXPECT_EQ(s.tm.admitted(), 2u);
  EXPECT_EQ(s.monitor.committed(), 2u);
  EXPECT_EQ(s.tm.admission_queue_depth(), 0u);
}

TEST(AdmissionTest, QueuedTransactionDispatchesWhenASlotFrees) {
  AdmissionConfig a = enabled_config();
  a.max_running = 1;
  Site s{a};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}}, 100));
  s.k.run();
  // Strictly serial despite touching disjoint objects: txn 2 started only
  // when txn 1 committed at t=4 and took its own 4tu.
  EXPECT_EQ(s.monitor.find(db::TxnId{1})->finish, at(4));
  EXPECT_EQ(s.monitor.find(db::TxnId{2})->finish, at(8));
}

TEST(AdmissionTest, QueueWaitPastTheDeadlineIsAnHonestMiss) {
  AdmissionConfig a = enabled_config();
  a.max_running = 1;
  Site s{a};
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));
  // Admitted (slack 5 >= estimate 4) but stuck behind txn 1 until t=4;
  // the watchdog fires at t=5 while it is still queued.
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite},
                         {2, cc::LockMode::kWrite}}, 100));
  s.tm.submit(s.spec(3, {{3, cc::LockMode::kWrite}}, 5));
  s.k.run();
  EXPECT_EQ(s.tm.admitted(), 3u);
  EXPECT_EQ(s.monitor.committed(), 2u);
  EXPECT_EQ(s.monitor.missed(), 1u);
  EXPECT_EQ(s.tm.deadline_kills(), 1u);
  EXPECT_TRUE(s.monitor.find(db::TxnId{3})->missed_deadline);
  EXPECT_EQ(s.monitor.find(db::TxnId{3})->finish, at(5));
}

TEST(AdmissionTest, EstimateTracksCommittedResponses) {
  AdmissionConfig a = enabled_config();
  a.initial_estimate_per_object = tu(10);  // deliberately wrong seed
  a.ema_alpha = 0.25;
  Site s{a};
  const TransactionSpec probe = s.spec(99, {{5, cc::LockMode::kWrite}}, 1000);
  EXPECT_EQ(s.tm.estimated_response(probe), tu(10));
  s.tm.submit(s.spec(1, {{0, cc::LockMode::kWrite}}, 100));
  s.k.run();
  // First committed sample of the class replaces the seed outright...
  EXPECT_EQ(s.tm.estimated_response(probe), tu(4));
  // ...and later samples blend in with weight alpha. A second identical
  // transaction responds in 4tu again, so the estimate stays put.
  s.tm.submit(s.spec(2, {{1, cc::LockMode::kWrite}}, 1000));
  s.k.run();
  EXPECT_EQ(s.tm.estimated_response(probe), tu(4));
}

TEST(AdmissionTest, AccountingAddsUp) {
  AdmissionConfig a = enabled_config();
  a.max_running = 1;
  a.queue_limit = 1;
  Site s{a};
  for (std::uint64_t id = 1; id <= 6; ++id) {
    s.tm.submit(s.spec(id, {{static_cast<db::ObjectId>(id),
                             cc::LockMode::kWrite}},
                       id <= 2 ? 100 : 6));
  }
  s.k.run();
  EXPECT_EQ(s.tm.admitted() + s.tm.shed(), 6u);
  EXPECT_EQ(s.monitor.processed() + s.monitor.shed(),
            s.monitor.records().size());
  EXPECT_EQ(s.monitor.records().size(), 6u);
}

}  // namespace
}  // namespace rtdb::txn
