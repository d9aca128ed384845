#include <gtest/gtest.h>

#include "cc/pcp.hpp"
#include "cc/two_phase.hpp"
#include "core/system.hpp"
#include "db/database.hpp"
#include "db/resource_manager.hpp"
#include "sched/cpu.hpp"
#include "sched/disk.hpp"
#include "sim/kernel.hpp"
#include "txn/manager.hpp"

namespace rtdb::txn {
namespace {

using sim::Duration;
using sim::TimePoint;

Duration tu(std::int64_t n) { return Duration::units(n); }

TEST(AccessSetCoarsenTest, MapsObjectsToGranules) {
  auto fine = cc::AccessSet::from_operations({{0, cc::LockMode::kRead},
                                              {3, cc::LockMode::kWrite},
                                              {4, cc::LockMode::kRead},
                                              {9, cc::LockMode::kRead}});
  auto coarse = fine.coarsened(4);
  // Objects 0,3 -> granule 0 (write wins); 4 -> 1; 9 -> 2.
  ASSERT_EQ(coarse.size(), 3u);
  EXPECT_TRUE(coarse.writes(0));
  EXPECT_TRUE(coarse.reads(1));
  EXPECT_TRUE(coarse.reads(2));
}

TEST(AccessSetCoarsenTest, GranularityOneIsIdentity) {
  auto fine = cc::AccessSet::reads_then_writes({1, 5}, {7});
  auto same = fine.coarsened(1);
  ASSERT_EQ(same.size(), fine.size());
  for (std::size_t i = 0; i < fine.size(); ++i) {
    EXPECT_EQ(same.operations()[i], fine.operations()[i]);
  }
}

// Two transactions touching different objects in the same granule must
// conflict under coarse locking and not under object locking.
TEST(GranularityTest, CoarseLocksCreateFalseConflicts) {
  auto run = [](std::uint32_t granularity) {
    sim::Kernel k;
    db::Database schema{db::DatabaseConfig{20, 1, db::Placement::kSingleSite}};
    sched::PreemptiveCpu cpu{k, 4};  // plenty of cores: locks decide timing
    sched::IoSubsystem io{k};
    db::ResourceManager rm{k, schema, 0, io, Duration::zero()};
    cc::TwoPhaseLocking cc{k, cc::TwoPhaseLocking::Options{}};
    core::Executor executor{
        core::Executor::Services{&k, &cpu, &rm, &cc, nullptr},
        core::Executor::Costs{tu(10), true, granularity}};
    stats::PerformanceMonitor monitor;
    TransactionManager tm{k, cc, executor, monitor};
    tm.connect_cpu(cpu);
    auto spec = [&](std::uint64_t id, db::ObjectId object) {
      TransactionSpec s;
      s.id = db::TxnId{id};
      s.access = cc::AccessSet::from_operations({{object, cc::LockMode::kWrite}});
      s.arrival = k.now();
      s.deadline = TimePoint::origin() + tu(1000);
      s.priority = sim::Priority{static_cast<std::int64_t>(id), 0};
      return s;
    };
    // Objects 0 and 1 share granule 0 when granularity >= 2.
    tm.submit(spec(1, 0));
    tm.submit(spec(2, 1));
    k.run();
    return monitor.record(db::TxnId{2}).finish.as_units();
  };
  EXPECT_EQ(run(1), 10.0);  // object locks: fully parallel
  EXPECT_EQ(run(4), 20.0);  // granule lock serializes the pair
}

TEST(GranularityTest, SystemRunsSerializablyAtCoarseGranularity) {
  for (const std::uint32_t granularity : {2u, 5u, 10u}) {
    core::SystemConfig cfg;
    cfg.protocol = core::Protocol::kTwoPhasePriority;
    cfg.db_objects = 40;
    cfg.lock_granularity = granularity;
    cfg.record_history = true;
    cfg.workload.transaction_count = 120;
    cfg.workload.size_min = 2;
    cfg.workload.size_max = 6;
    cfg.workload.mean_interarrival = tu(25);
    cfg.workload.slack_min = 10;
    cfg.workload.slack_max = 20;
    cfg.workload.est_time_per_object = tu(4);
    cfg.seed = granularity;
    core::System system{cfg};
    system.run_to_completion();
    EXPECT_EQ(system.metrics().processed, 120u);
    std::string why;
    EXPECT_TRUE(system.history()->conflict_serializable(&why))
        << "granularity " << granularity << ": " << why;
  }
}

TEST(GranularityTest, PcpCeilingsWorkAtGranuleLevel) {
  core::SystemConfig cfg;
  cfg.protocol = core::Protocol::kPriorityCeiling;
  cfg.db_objects = 40;
  cfg.lock_granularity = 8;  // five granules in total: heavy ceiling action
  cfg.workload.transaction_count = 100;
  cfg.workload.size_min = 2;
  cfg.workload.size_max = 4;
  cfg.workload.mean_interarrival = tu(30);
  cfg.workload.slack_min = 15;
  cfg.workload.slack_max = 30;
  cfg.workload.est_time_per_object = tu(4);
  cfg.seed = 9;
  core::System system{cfg};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.processed, 100u);
  EXPECT_GT(m.committed, 80u);
  EXPECT_EQ(system.site(0).tm->live_count(), 0u);
}

}  // namespace
}  // namespace rtdb::txn
