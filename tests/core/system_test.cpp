#include "core/system.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace rtdb::core {
namespace {

using sim::Duration;

SystemConfig small_single_site(Protocol protocol, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.protocol = protocol;
  cfg.db_objects = 40;
  cfg.cpu_per_object = Duration::units(2);
  cfg.io_per_object = Duration::units(1);
  cfg.workload.size_min = 2;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = Duration::units(20);
  cfg.workload.transaction_count = 150;
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = Duration::units(4);
  cfg.workload.read_only_fraction = 0.3;
  cfg.seed = seed;
  cfg.record_history = true;
  return cfg;
}

// Every protocol must process the whole batch, commit the vast majority
// under this mild load, and produce a conflict-serializable history.
class ProtocolIntegration
    : public ::testing::TestWithParam<std::tuple<Protocol, std::uint64_t>> {};

TEST_P(ProtocolIntegration, ProcessesBatchSerializably) {
  const auto [protocol, seed] = GetParam();
  System system{small_single_site(protocol, seed)};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.arrived, 150u);
  EXPECT_EQ(m.processed, 150u);
  EXPECT_GE(m.committed + m.missed, 150u);
  EXPECT_GT(m.committed, 120u) << "mild load should mostly commit";
  std::string why;
  ASSERT_NE(system.history(), nullptr);
  EXPECT_TRUE(system.history()->conflict_serializable(&why)) << why;
  // System fully drained.
  EXPECT_EQ(system.site(0).tm->live_count(), 0u);
  EXPECT_EQ(system.kernel().live_process_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolIntegration,
    ::testing::Combine(
        ::testing::Values(Protocol::kTwoPhase, Protocol::kTwoPhasePriority,
                          Protocol::kPriorityCeiling,
                          Protocol::kPriorityCeilingExclusive,
                          Protocol::kPriorityInheritance,
                          Protocol::kHighPriority,
                          Protocol::kTimestampOrdering),
        ::testing::Values(1u, 2u, 3u)));

SystemConfig distributed(DistScheme scheme, std::uint64_t seed,
                         std::int64_t delay_units) {
  SystemConfig cfg;
  cfg.scheme = scheme;
  cfg.sites = 3;
  cfg.db_objects = 60;
  cfg.cpu_per_object = Duration::units(2);
  cfg.io_per_object = Duration::zero();  // memory-resident
  cfg.comm_delay = Duration::units(delay_units);
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 6;
  cfg.workload.mean_interarrival = Duration::units(10);
  cfg.workload.transaction_count = 150;
  cfg.workload.slack_min = 10;
  cfg.workload.slack_max = 20;
  cfg.workload.est_time_per_object = Duration::units(3);
  cfg.workload.read_only_fraction = 0.5;
  cfg.seed = seed;
  return cfg;
}

TEST(SystemIntegration, GlobalCeilingProcessesBatch) {
  SystemConfig cfg = distributed(DistScheme::kGlobalCeiling, 5, 1);
  cfg.record_history = true;
  System system{cfg};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.processed, 150u);
  EXPECT_GT(m.committed, 100u);
  const auto& manager = system.site(0).shard_managers[0];
  ASSERT_NE(manager, nullptr);
  EXPECT_GT(manager->registrations(), 0u);
  EXPECT_GT(manager->acquire_requests(), 0u);
  // One global serialization domain: the committed history must be
  // globally conflict-serializable.
  std::string why;
  EXPECT_TRUE(system.history()->conflict_serializable(&why)) << why;
  for (net::SiteId s = 0; s < 3; ++s) {
    EXPECT_EQ(system.site(s).tm->live_count(), 0u);
  }
}

TEST(SystemIntegration, GlobalCeilingSynchronousCopiesStayIdentical) {
  System system{distributed(DistScheme::kGlobalCeiling, 6, 2)};
  system.run_to_completion();
  // After the run drains, every site's copy of every object is identical —
  // the temporal-consistency guarantee bought with synchronous updates.
  for (db::ObjectId o = 0; o < system.schema().object_count(); ++o) {
    const auto& reference = system.site(0).rm->current(o);
    for (net::SiteId s = 1; s < 3; ++s) {
      EXPECT_EQ(system.site(s).rm->current(o), reference)
          << "object " << o << " diverged at site " << s;
    }
  }
}

TEST(SystemIntegration, LocalCeilingProcessesBatchAndConverges) {
  System system{distributed(DistScheme::kLocalCeiling, 7, 2)};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.processed, 150u);
  EXPECT_GT(m.committed, 130u);
  // Once propagation drains, secondaries converge to the primaries.
  for (db::ObjectId o = 0; o < system.schema().object_count(); ++o) {
    const net::SiteId primary = system.schema().primary_site(o);
    const auto& reference = system.site(primary).rm->current(o);
    for (net::SiteId s = 0; s < 3; ++s) {
      EXPECT_EQ(system.site(s).rm->current(o), reference)
          << "object " << o << " did not converge at site " << s;
    }
  }
  // Replication actually happened and measured its lag.
  std::uint64_t applied = 0;
  for (net::SiteId s = 0; s < 3; ++s) {
    applied += system.site(s).replication->updates_applied();
    EXPECT_GE(system.site(s).replication->max_lag(), Duration::units(2));
  }
  EXPECT_GT(applied, 0u);
}

TEST(SystemIntegration, LocalBeatsGlobalUnderLoad) {
  // The headline §4 result at one representative point.
  SystemConfig g = distributed(DistScheme::kGlobalCeiling, 9, 2);
  SystemConfig l = distributed(DistScheme::kLocalCeiling, 9, 2);
  g.workload.mean_interarrival = Duration::units(5);
  l.workload.mean_interarrival = Duration::units(5);
  const RunResult rg = ExperimentRunner::run_once(g);
  const RunResult rl = ExperimentRunner::run_once(l);
  EXPECT_GT(rl.metrics.throughput_objects_per_sec,
            rg.metrics.throughput_objects_per_sec);
  EXPECT_LE(rl.metrics.pct_missed, rg.metrics.pct_missed);
}

TEST(SystemIntegration, GlobalPartitionedExtensionWorks) {
  // One global ceiling manager over partitioned single-copy data with
  // remote reads: the partitioned scheme at one shard.
  SystemConfig cfg = distributed(DistScheme::kPartitionedCeiling, 10, 1);
  cfg.shards = 1;
  System system{cfg};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.processed, 150u);
  EXPECT_GT(m.committed, 80u);
  // Remote reads actually exercised the data servers.
  std::uint64_t remote_reads = 0;
  for (net::SiteId s = 0; s < 3; ++s) {
    remote_reads += system.site(s).data_server->remote_reads();
  }
  EXPECT_GT(remote_reads, 0u);
}

TEST(SystemIntegration, RunsAreReproducible) {
  auto signature = [](std::uint64_t seed) {
    System system{small_single_site(Protocol::kPriorityCeiling, seed)};
    system.run_to_completion();
    const auto m = system.metrics();
    return std::tuple{m.committed, m.missed, m.throughput_objects_per_sec,
                      system.kernel().now().as_ticks(),
                      system.kernel().events_executed()};
  };
  EXPECT_EQ(signature(11), signature(11));
  EXPECT_NE(signature(11), signature(12));
}

TEST(SystemIntegration, ExperimentRunnerAveragesSeeds) {
  SystemConfig cfg = small_single_site(Protocol::kPriorityCeiling, 100);
  cfg.workload.transaction_count = 60;
  auto results = ExperimentRunner::run_many(cfg, 4);
  ASSERT_EQ(results.size(), 4u);
  for (const auto& r : results) {
    EXPECT_EQ(r.metrics.processed, 60u);
  }
  const auto agg = ExperimentRunner::aggregate(
      results, [](const RunResult& r) { return r.metrics.pct_missed; });
  EXPECT_EQ(agg.n, 4u);
  EXPECT_GE(agg.max, agg.mean);
  EXPECT_GE(agg.mean, agg.min);
  EXPECT_GE(ExperimentRunner::mean_throughput(results), 0.0);
}

TEST(SystemIntegration, VersionHistoryEnablesTemporalViews) {
  SystemConfig cfg = small_single_site(Protocol::kPriorityCeiling, 13);
  cfg.keep_version_history = true;
  cfg.workload.read_only_fraction = 0.0;
  System system{cfg};
  system.run_to_completion();
  const auto* mv = system.site(0).rm->version_history();
  ASSERT_NE(mv, nullptr);
  std::size_t versions = 0;
  for (db::ObjectId o = 0; o < 40; ++o) versions += mv->version_count(o);
  EXPECT_GT(versions, 40u);  // initial versions plus committed writes
}

TEST(SystemIntegration, FiniteDisksAndMultipleCpus) {
  // The "relative speed of CPU, I/O" configuration axes: a 2-CPU site with
  // two real disks must still process everything correctly (just with
  // different queueing), and the resources must show utilization.
  SystemConfig cfg = small_single_site(Protocol::kPriorityCeiling, 21);
  cfg.cpus_per_site = 2;
  cfg.disks_per_site = 2;
  System system{cfg};
  system.run_to_completion();
  const auto m = system.metrics();
  EXPECT_EQ(m.processed, 150u);
  EXPECT_GT(m.committed, 120u);
  EXPECT_GT(system.site(0).cpu->busy_time(), Duration::zero());
  EXPECT_GT(system.site(0).io->completed(), 0u);
  EXPECT_EQ(system.site(0).io->queue_length(), 0u);
  std::string why;
  EXPECT_TRUE(system.history()->conflict_serializable(&why)) << why;
}

TEST(SystemIntegration, SingleDiskBecomesTheBottleneck) {
  // With an I/O-bound workload, one disk serializes the accesses that
  // unlimited disks overlap: responses stretch, throughput drops.
  SystemConfig parallel = small_single_site(Protocol::kPriorityCeiling, 22);
  parallel.cpu_per_object = Duration::units(1);
  parallel.io_per_object = Duration::units(5);
  SystemConfig serial = parallel;
  serial.disks_per_site = 1;
  System a{parallel};
  a.run_to_completion();
  System b{serial};
  b.run_to_completion();
  EXPECT_EQ(b.metrics().processed, 150u);
  // Nothing per-transaction is monotone here (deadline kills at different
  // instants change even the number of I/Os issued), so assert the robust
  // facts: the single-disk schedule genuinely differs, the disk did real
  // serialized work, and the queue fully drained.
  EXPECT_NE(b.metrics().avg_response_units, a.metrics().avg_response_units);
  EXPECT_GT(b.site(0).io->busy_time(), Duration::zero());
  EXPECT_EQ(b.site(0).io->busy(), 0);
  EXPECT_EQ(b.site(0).io->queue_length(), 0u);
}

}  // namespace
}  // namespace rtdb::core
