// End-to-end fault injection through core::System: scheduled site crashes
// driven by config (SystemConfig::faults) rather than by hand, exercising
// the kill / presumed-abort / replica-catch-up machinery together.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system.hpp"

namespace rtdb::dist {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

core::SystemConfig dist_cfg(core::DistScheme scheme) {
  core::SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.sites = 3;
  cfg.db_objects = 60;
  cfg.cpu_per_object = tu(2);
  cfg.io_per_object = Duration::zero();
  cfg.comm_delay = tu(2);
  cfg.workload.transaction_count = 150;
  cfg.workload.read_only_fraction = 0.3;
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = tu(5);
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = tu(3);
  cfg.seed = 4;
  return cfg;
}

TEST(SystemFaultTest, LocalSchemeCrashReplaysLostUpdatesViaRecovery) {
  core::SystemConfig cfg = dist_cfg(core::DistScheme::kLocalCeiling);
  // Site 2 fail-stops at 150tu and rejoins at 450tu; restore triggers a
  // replica catch-up automatically.
  cfg.faults.crashes.push_back(
      net::FaultSpec::Crash{2, tu(150), tu(300)});
  core::System system{cfg};
  system.run_to_completion();

  const core::RunResult counters = system.counters();
  EXPECT_EQ(counters.crashes, 1u);
  EXPECT_GT(counters.crash_kills, 0u);  // it had work in flight
  // Updates committed at sites 0/1 during the outage were lost at 2 and
  // replayed by the catch-up round.
  EXPECT_GT(counters.versions_recovered, 0u);
  // Every copy converged: the catch-up covers the outage, normal
  // propagation covers everything after it.
  for (db::ObjectId o = 0; o < system.schema().object_count(); ++o) {
    const net::SiteId primary = system.schema().primary_site(o);
    EXPECT_EQ(system.site(2).rm->current(o),
              system.site(primary).rm->current(o))
        << "object " << o << " not recovered";
  }
  // Every transaction is accounted for even across the crash.
  EXPECT_EQ(system.monitor().processed(), system.monitor().records().size());
}

TEST(SystemFaultTest, GlobalSchemeCrashAbortsDeadSiteTransactions) {
  core::SystemConfig cfg = dist_cfg(core::DistScheme::kGlobalCeiling);
  // Short enough that a coordinator blocked on the dead site's vote reaches
  // the timeout before the deadline watchdog kills the whole transaction.
  cfg.commit_vote_timeout = tu(8);
  cfg.faults.crashes.push_back(
      net::FaultSpec::Crash{2, tu(150), tu(300)});
  core::System system{cfg};
  system.run_to_completion();

  const core::RunResult counters = system.counters();
  EXPECT_EQ(counters.crashes, 1u);
  EXPECT_GT(counters.crash_kills, 0u);
  // The global manager freed the dead site's locks (idealized failure
  // detection), so the survivors drained: nothing is left registered.
  ASSERT_NE(system.site(0).shard_managers[0], nullptr);
  EXPECT_EQ(system.site(0).shard_managers[0]->live_mirrors(), 0u);
  // While site 2 was down its 2PC votes never arrived: replicated commits
  // at the surviving sites aborted on the vote timeout.
  EXPECT_GT(counters.vote_timeouts, 0u);
  EXPECT_EQ(system.monitor().processed(), system.monitor().records().size());
}

TEST(SystemFaultTest, FaultScheduleIsAPureFunctionOfTheSeed) {
  core::SystemConfig cfg = dist_cfg(core::DistScheme::kGlobalCeiling);
  cfg.commit_vote_timeout = tu(40);
  cfg.faults.drop_rate = 0.02;
  cfg.faults.dup_rate = 0.01;
  cfg.faults.jitter = tu(1);
  const core::RunResult a = core::ExperimentRunner::run_once(cfg);
  const core::RunResult b = core::ExperimentRunner::run_once(cfg);
  EXPECT_EQ(a.metrics.committed, b.metrics.committed);
  EXPECT_EQ(a.metrics.missed, b.metrics.missed);
  EXPECT_EQ(a.metrics.throughput_objects_per_sec,
            b.metrics.throughput_objects_per_sec);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.fault_dups, b.fault_dups);
  EXPECT_EQ(a.commit_aborts, b.commit_aborts);
  EXPECT_EQ(a.presumed_aborts, b.presumed_aborts);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_GT(a.fault_drops, 0u);  // the knobs actually did something
  EXPECT_GT(a.fault_dups, 0u);
}

TEST(SystemFaultTest, ZeroFaultSpecIsBitIdenticalToBaseline) {
  core::SystemConfig cfg = dist_cfg(core::DistScheme::kGlobalCeiling);
  const core::RunResult baseline = core::ExperimentRunner::run_once(cfg);
  // An explicitly *installed* zero spec must not perturb anything: the
  // injector is never consulted, the fault stream never drawn from.
  cfg.faults.drop_rate = 0.0;
  cfg.faults.dup_rate = 0.0;
  cfg.faults.jitter = Duration::zero();
  const core::RunResult zero = core::ExperimentRunner::run_once(cfg);
  EXPECT_EQ(baseline.metrics.committed, zero.metrics.committed);
  EXPECT_EQ(baseline.metrics.missed, zero.metrics.missed);
  EXPECT_EQ(baseline.metrics.throughput_objects_per_sec,
            zero.metrics.throughput_objects_per_sec);
  EXPECT_EQ(baseline.restarts, zero.restarts);
  EXPECT_EQ(baseline.elapsed, zero.elapsed);
}

}  // namespace
}  // namespace rtdb::dist
