// The partitioned ceiling scheme end-to-end: the object space sharded
// across per-shard ceiling managers, acquires routed to the owning shard,
// release/end fanned out per shard, and — under faults — each shard's
// manager failing over independently behind its own lease-fenced election.

#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"

namespace rtdb::dist {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

core::SystemConfig part_cfg(std::uint32_t sites = 4) {
  core::SystemConfig cfg;
  cfg.scheme = core::DistScheme::kPartitionedCeiling;
  cfg.sites = sites;
  cfg.db_objects = 20 * sites;
  cfg.cpu_per_object = tu(2);
  cfg.io_per_object = Duration::zero();
  cfg.comm_delay = tu(1);
  cfg.workload.transaction_count = 30 * sites;
  cfg.workload.read_only_fraction = 0.25;
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = sim::Duration::from_units(18.0 / sites);
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = tu(3);
  cfg.seed = 2;
  return cfg;
}

TEST(PartitionedSchemeTest, FaultFreeRunCommitsAndDrainsClean) {
  core::SystemConfig cfg = part_cfg();
  cfg.conformance_check = true;
  core::System system{cfg};
  system.run_to_completion();

  EXPECT_EQ(system.effective_shards(), 4u);
  const stats::Metrics m = system.metrics();
  EXPECT_EQ(m.arrived, cfg.workload.transaction_count);
  // The workload is deliberately contended (remote ceilings serialize
  // hard, as in the paper's global-scheme figures); the run must still
  // make real progress, not merely limp.
  EXPECT_GT(m.committed, cfg.workload.transaction_count / 5);
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
  ASSERT_NE(system.conformance(), nullptr);
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
  // Every site routed every control message to a known shard.
  for (std::uint32_t id = 0; id < cfg.sites; ++id) {
    EXPECT_EQ(system.site(id).router->misrouted(), 0u) << "site " << id;
  }
}

TEST(PartitionedSchemeTest, ShardCountClampsToConfigAndSites) {
  {
    core::SystemConfig cfg = part_cfg(4);
    cfg.shards = 2;
    core::System system{cfg};
    EXPECT_EQ(system.effective_shards(), 2u);
  }
  {
    core::SystemConfig cfg = part_cfg(4);
    cfg.shards = 16;  // clamped: shard s's initial manager is site s
    core::System system{cfg};
    EXPECT_EQ(system.effective_shards(), 4u);
  }
  {
    // The global scheme is the one-shard layout: config.shards does not
    // apply to it.
    core::SystemConfig cfg = part_cfg(4);
    cfg.scheme = core::DistScheme::kGlobalCeiling;
    cfg.shards = 4;
    core::System system{cfg};
    EXPECT_EQ(system.effective_shards(), 1u);
    for (std::uint32_t id = 0; id < cfg.sites; ++id) {
      EXPECT_EQ(system.site(id).shard_managers.size(), 1u) << "site " << id;
    }
  }
}

TEST(PartitionedSchemeTest, RunsAreDeterministic) {
  const core::RunResult a = core::ExperimentRunner::run_once(part_cfg());
  const core::RunResult b = core::ExperimentRunner::run_once(part_cfg());
  EXPECT_EQ(a.metrics.committed, b.metrics.committed);
  EXPECT_EQ(a.metrics.missed, b.metrics.missed);
  EXPECT_DOUBLE_EQ(a.metrics.throughput_objects_per_sec,
                   b.metrics.throughput_objects_per_sec);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.protocol_aborts, b.protocol_aborts);
}

TEST(PartitionedSchemeTest, RangePartitionerAlsoDrainsClean) {
  core::SystemConfig cfg = part_cfg();
  cfg.partitioner = core::Partitioner::kRange;
  cfg.conformance_check = true;
  core::System system{cfg};
  system.run_to_completion();
  EXPECT_GT(system.metrics().committed, 0u);
  EXPECT_EQ(system.invariant_violations(), 0u);
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
}

TEST(PartitionedSchemeTest, BatchingCoalescesControlTraffic) {
  core::SystemConfig cfg = part_cfg();
  cfg.batch_window = tu(1);
  core::System system{cfg};
  system.run_to_completion();
  EXPECT_GT(system.metrics().committed, 0u);
  const core::RunResult counters = system.counters();
  EXPECT_GT(counters.batched_messages, 0u);
  EXPECT_GT(counters.batch_flushes, 0u);
  // Frames coalesce: strictly fewer flushes than payloads batched.
  EXPECT_LT(counters.batch_flushes, counters.batched_messages);
  EXPECT_EQ(system.invariant_violations(), 0u);
}

TEST(PartitionedSchemeTest, ShardManagerCrashFailsOverThatShardOnly) {
  core::SystemConfig cfg = part_cfg();
  cfg.conformance_check = true;
  cfg.commit_vote_timeout = tu(40);
  // Site 1 hosts shard 1's initially active manager; kill it mid-run for
  // good. The other shards' managers (sites 0, 2, 3) stay where they are.
  cfg.faults.crashes.push_back(
      net::FaultSpec::Crash{1, tu(120), Duration::zero()});
  core::System system{cfg};
  system.run_to_completion();

  const core::RunResult counters = system.counters();
  EXPECT_EQ(counters.crashes, 1u);
  // Exactly shard 1's election promoted a successor.
  EXPECT_GE(counters.shard_migrations, 1u);
  // Work kept committing after the crash on the surviving sites.
  EXPECT_GT(system.metrics().committed, 0u);
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
}

TEST(PartitionedSchemeTest, BatchedChaosRunStaysClean) {
  // Batching, message loss, and a healed crash together: the coalesced
  // control plane must not break the shard failover or the audits.
  core::SystemConfig cfg = part_cfg();
  cfg.conformance_check = true;
  cfg.batch_window = tu(1);
  cfg.commit_vote_timeout = tu(40);
  cfg.faults.drop_rate = 0.01;
  cfg.faults.crashes.push_back(net::FaultSpec::Crash{1, tu(120), tu(150)});
  core::System system{cfg};
  system.run_to_completion();

  EXPECT_GT(system.metrics().committed, 0u);
  EXPECT_GT(system.counters().batched_messages, 0u);
  std::string why;
  EXPECT_EQ(system.invariant_violations(&why), 0u) << why;
  EXPECT_EQ(system.conformance()->violations(), 0u)
      << system.conformance()->format_reports();
}

}  // namespace
}  // namespace rtdb::dist
