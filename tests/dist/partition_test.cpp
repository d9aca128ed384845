// Partition tolerance end-to-end: a scheduled link cut isolates the
// ceiling-manager site. The isolated manager loses quorum and fences (its
// lease expires strictly before the election window elapses), the majority
// elects a successor and keeps committing through the split, and after the
// heal the minority adopts the higher term — no double-manager window, no
// stale-term grant accepted, and a clean post-run audit.

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/system.hpp"

namespace rtdb::dist {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

core::SystemConfig partition_cfg() {
  core::SystemConfig cfg;
  cfg.scheme = core::DistScheme::kGlobalCeiling;
  cfg.sites = 3;
  cfg.db_objects = 60;
  cfg.cpu_per_object = tu(2);
  cfg.io_per_object = Duration::zero();
  cfg.comm_delay = tu(2);
  cfg.commit_vote_timeout = tu(8);
  cfg.workload.transaction_count = 150;
  cfg.workload.read_only_fraction = 0.4;
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = tu(5);
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = tu(3);
  cfg.seed = 4;
  // The manager site is cut off (symmetric) at t=150 and heals at t=450 —
  // long enough for the lease to expire and the majority to elect.
  cfg.faults.partitions.push_back(
      net::FaultSpec::Partition{{0}, tu(150), tu(300), true});
  return cfg;
}

int committed_between(core::System& system, Duration from, Duration until) {
  const sim::TimePoint lo = sim::TimePoint::origin() + from;
  const sim::TimePoint hi = sim::TimePoint::origin() + until;
  int n = 0;
  for (const stats::TxnRecord& rec : system.monitor().records()) {
    if (rec.committed && rec.finish > lo && rec.finish <= hi) ++n;
  }
  return n;
}

TEST(PartitionToleranceTest, MajoritySideElectsAndKeepsCommitting) {
  core::SystemConfig cfg = partition_cfg();
  cfg.conformance_check = true;  // lease audit shadows the whole run
  core::System system{cfg};
  system.run_to_completion();

  // The isolated manager's lease expired (it fenced itself)...
  EXPECT_GE(system.site(0).shard_failovers[0]->lease_expiries(), 1u);
  const core::RunResult counters = system.counters();
  // ...and the majority promoted the next site.
  EXPECT_GE(counters.failovers, 1u);
  EXPECT_EQ(system.site(1).shard_failovers[0]->manager(), 1u);
  EXPECT_EQ(system.site(2).shard_failovers[0]->manager(), 1u);
  // The majority side kept committing during the split.
  EXPECT_GT(committed_between(system, tu(150), tu(450)), 0);
  // Messages really were cut.
  EXPECT_GT(counters.partition_drops, 0u);
  // Post-heal, the minority adopted the higher term: every site agrees.
  EXPECT_EQ(system.site(0).shard_failovers[0]->manager(), 1u);
  EXPECT_EQ(system.site(0).shard_failovers[0]->term(),
            system.site(1).shard_failovers[0]->term());
  EXPECT_FALSE(system.site(0).shard_managers[0]->active());
  // Audit-clean: no lease invariant violated, nothing leaked.
  ASSERT_NE(system.conformance(), nullptr);
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
  EXPECT_EQ(system.monitor().processed() + system.monitor().shed(),
            system.monitor().records().size());
}

TEST(PartitionToleranceTest, LeaseFencesBeforeTheElectionWindowElapses) {
  // The fence-before-election argument, observed end-to-end: with default
  // timers the lease window (interval * (miss_threshold - 1)) is one full
  // beat inside the election window (interval * miss_threshold), so at no
  // point do two managers hold a live lease ("at most one lease per term"
  // is the audited invariant; this checks the stronger timing property via
  // the counters).
  core::SystemConfig cfg = partition_cfg();
  core::System system{cfg};
  system.run_to_completion();
  // Site 0 fenced at least once; it never granted under an expired lease,
  // so clients saw denials, not stale grants, from the minority side —
  // stale-term *responses* may still reach retried acquires after heal.
  EXPECT_GE(system.site(0).shard_failovers[0]->lease_expiries(), 1u);
  std::uint64_t fence_denials = 0;
  for (net::SiteId s = 0; s < system.site_count(); ++s) {
    for (const auto& manager : system.site(s).shard_managers) {
      if (manager != nullptr) fence_denials += manager->fence_denials();
    }
  }
  EXPECT_GT(fence_denials, 0u);
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
}

TEST(PartitionToleranceTest, PartitionedRunIsAPureFunctionOfTheSeed) {
  core::SystemConfig cfg = partition_cfg();
  cfg.faults.drop_rate = 0.05;  // combine partition with message faults
  const core::RunResult a = core::ExperimentRunner::run_once(cfg);
  const core::RunResult b = core::ExperimentRunner::run_once(cfg);
  EXPECT_EQ(a.metrics.committed, b.metrics.committed);
  EXPECT_EQ(a.metrics.missed, b.metrics.missed);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.fault_drops, b.fault_drops);
  EXPECT_EQ(a.partition_drops, b.partition_drops);
  EXPECT_EQ(a.failovers, b.failovers);
  EXPECT_EQ(a.lease_expiries, b.lease_expiries);
  EXPECT_EQ(a.stale_grants_rejected, b.stale_grants_rejected);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_GT(a.partition_drops, 0u);
  EXPECT_GE(a.lease_expiries, 1u);
  EXPECT_EQ(a.invariant_violations, 0u);
}

TEST(PartitionToleranceTest, AsymmetricCutIsCaughtByStaleTermRejection) {
  // Outbound-only cut: site 0 still hears the majority (its lease-quorum
  // view stays green — the fence cannot see a one-way cut) but nothing it
  // says gets out, so the majority elects anyway. The defense against the
  // fenceless twin is client-side: after the heal, responses stamped with
  // the old term are rejected, never acted on.
  core::SystemConfig cfg = partition_cfg();
  cfg.faults.partitions.clear();
  cfg.faults.partitions.push_back(
      net::FaultSpec::Partition{{0}, tu(150), tu(300), false});
  cfg.conformance_check = true;
  core::System system{cfg};
  system.run_to_completion();
  const core::RunResult counters = system.counters();
  EXPECT_GE(counters.failovers, 1u);
  EXPECT_GT(counters.stale_grants_rejected, 0u);
  EXPECT_EQ(system.site(1).shard_failovers[0]->manager(), 1u);
  ASSERT_NE(system.conformance(), nullptr);
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
}

}  // namespace
}  // namespace rtdb::dist
