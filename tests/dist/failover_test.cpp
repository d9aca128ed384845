// Ceiling-manager failover end-to-end: the global scheme survives a crash
// of the manager site itself. Heartbeats detect the death, the next live
// site promotes itself, clients re-register their live transactions (the
// new manager adopts the locks they already hold), and the run completes
// with nonzero post-crash throughput and a clean invariant audit.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system.hpp"

namespace rtdb::dist {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

core::SystemConfig failover_cfg() {
  core::SystemConfig cfg;
  cfg.scheme = core::DistScheme::kGlobalCeiling;
  cfg.sites = 3;
  cfg.db_objects = 60;
  cfg.cpu_per_object = tu(2);
  cfg.io_per_object = Duration::zero();
  cfg.comm_delay = tu(2);
  cfg.commit_vote_timeout = tu(8);
  cfg.workload.transaction_count = 150;
  cfg.workload.read_only_fraction = 0.3;
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = tu(5);
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = tu(3);
  cfg.seed = 4;
  // The scenario of the PR: 5% message loss and the *manager site* dying
  // mid-run, for good.
  cfg.faults.drop_rate = 0.05;
  cfg.faults.crashes.push_back(
      net::FaultSpec::Crash{0, tu(150), Duration::zero()});
  return cfg;
}

int committed_after(core::System& system, Duration at) {
  const sim::TimePoint cut = sim::TimePoint::origin() + at;
  int n = 0;
  for (const stats::TxnRecord& rec : system.monitor().records()) {
    if (rec.committed && rec.finish > cut) ++n;
  }
  return n;
}

TEST(FailoverTest, ManagerCrashFailsOverAndSurvivorsKeepCommitting) {
  core::SystemConfig cfg = failover_cfg();
  core::System system{cfg};
  system.run_to_completion();

  const core::RunResult counters = system.counters();
  EXPECT_EQ(counters.crashes, 1u);
  // Exactly one site promoted itself: the next live site by id.
  EXPECT_GE(counters.failovers, 1u);
  EXPECT_EQ(system.site(1).shard_failovers[0]->manager(), 1u);
  EXPECT_EQ(system.site(2).shard_failovers[0]->manager(), 1u);
  EXPECT_TRUE(system.site(1).shard_managers[0]->active());
  // The survivors kept committing after the manager died.
  EXPECT_GT(committed_after(system, tu(150)), 0);
  // And the end state audits clean: controllers quiescent, no mirror or
  // lock leaked anywhere, ceilings reset.
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
  // Every transaction is accounted for across the failover.
  EXPECT_EQ(system.monitor().processed(), system.monitor().records().size());
}

TEST(FailoverTest, FailoverOutperformsTheNoFailoverBaseline) {
  core::SystemConfig cfg = failover_cfg();
  const core::RunResult with = core::ExperimentRunner::run_once(cfg);
  cfg.enable_failover = false;
  const core::RunResult without = core::ExperimentRunner::run_once(cfg);
  EXPECT_GE(with.failovers, 1u);
  EXPECT_EQ(without.failovers, 0u);
  // A global-scheme promotion is a failover, never a shard migration.
  EXPECT_EQ(with.shard_migrations, 0u);
  // Without a successor, everything submitted after the crash can only
  // miss its deadline; failover recovers most of that work.
  EXPECT_GT(with.metrics.committed, without.metrics.committed);
  EXPECT_EQ(with.invariant_violations, 0u);
  EXPECT_EQ(without.invariant_violations, 0u);
}

TEST(FailoverTest, SuccessorAdoptsALockHeldAcrossTheCrash) {
  // At this seed a transaction holds a lock granted by the dying manager
  // and re-registers it with the successor, which adopts it: the
  // failover-reconstruction path, audited end to end.
  core::SystemConfig cfg = failover_cfg();
  cfg.seed = 6;
  cfg.conformance_check = true;
  const core::RunResult result = core::ExperimentRunner::run_once(cfg);
  EXPECT_GE(result.orphan_locks_reclaimed, 1u);
  EXPECT_EQ(result.conformance_violations, 0u);
  EXPECT_EQ(result.invariant_violations, 0u);
}

TEST(FailoverTest, RestoredManagerRejoinsAsStandby) {
  core::SystemConfig cfg = failover_cfg();
  cfg.faults.crashes.clear();
  cfg.faults.crashes.push_back(net::FaultSpec::Crash{0, tu(150), tu(200)});
  core::System system{cfg};
  system.run_to_completion();

  EXPECT_GE(system.counters().failovers, 1u);
  // The old manager came back, heard the newer term, and submitted to it:
  // every site agrees the manager is site 1, and site 0's instance stays
  // inactive.
  EXPECT_EQ(system.site(0).shard_failovers[0]->manager(), 1u);
  EXPECT_FALSE(system.site(0).shard_managers[0]->active());
  EXPECT_TRUE(system.site(1).shard_managers[0]->active());
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
}

TEST(FailoverTest, FaultyFailoverRunIsAPureFunctionOfTheSeed) {
  const core::SystemConfig cfg = failover_cfg();
  const core::RunResult a = core::ExperimentRunner::run_once(cfg);
  const core::RunResult b = core::ExperimentRunner::run_once(cfg);
  EXPECT_EQ(a.metrics.committed, b.metrics.committed);
  EXPECT_EQ(a.metrics.missed, b.metrics.missed);
  EXPECT_EQ(a.metrics.throughput_objects_per_sec,
            b.metrics.throughput_objects_per_sec);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.backoff_wait_units, b.backoff_wait_units);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.termination_queries, b.termination_queries);
  EXPECT_EQ(a.termination_resolutions, b.termination_resolutions);
  EXPECT_EQ(a.orphan_locks_reclaimed, b.orphan_locks_reclaimed);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_GE(a.failovers, 1u);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_EQ(a.invariant_violations, 0u);
}

}  // namespace
}  // namespace rtdb::dist
