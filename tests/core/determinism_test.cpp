// Whole-system determinism: identical (config, seed) pairs must replay to
// bit-identical statistics, event counts, and final clocks — across every
// protocol and scheme. This is the property that makes the experiment
// methodology (N seeded runs, comparable cells) sound.

#include <gtest/gtest.h>

#include <tuple>

#include "core/system.hpp"

namespace rtdb::core {
namespace {

using Signature = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                             double, std::int64_t, std::uint64_t,
                             std::uint64_t>;

Signature run_signature(SystemConfig cfg) {
  System system{cfg};
  system.run_to_completion();
  const auto m = system.metrics();
  return Signature{m.committed,
                   m.missed,
                   m.total_restarts,
                   m.throughput_objects_per_sec,
                   system.kernel().now().as_ticks(),
                   system.kernel().events_executed(),
                   system.counters().protocol_aborts};
}

SystemConfig config_for(Protocol protocol, DistScheme scheme) {
  SystemConfig cfg;
  cfg.protocol = protocol;
  cfg.scheme = scheme;
  if (scheme != DistScheme::kSingleSite) {
    cfg.sites = 3;
    cfg.db_objects = 60;
    cfg.io_per_object = sim::Duration::zero();
    cfg.comm_delay = sim::Duration::units(2);
    cfg.workload.mean_interarrival = sim::Duration::units(6);
    cfg.workload.read_only_fraction = 0.5;
  } else {
    cfg.db_objects = 60;
    cfg.workload.mean_interarrival = sim::Duration::units(15);
  }
  cfg.workload.transaction_count = 150;
  cfg.workload.size_min = 3;
  cfg.workload.size_max = 7;
  cfg.workload.slack_min = 5;
  cfg.workload.slack_max = 10;
  cfg.workload.est_time_per_object = sim::Duration::units(3);
  cfg.seed = 12345;
  return cfg;
}

class DeterminismTest : public ::testing::TestWithParam<Protocol> {};

TEST_P(DeterminismTest, SingleSiteReplaysExactly) {
  const auto cfg = config_for(GetParam(), DistScheme::kSingleSite);
  const Signature first = run_signature(cfg);
  const Signature second = run_signature(cfg);
  EXPECT_EQ(first, second);
  auto different = cfg;
  different.seed = 54321;
  EXPECT_NE(run_signature(different), first);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DeterminismTest,
    ::testing::Values(Protocol::kTwoPhase, Protocol::kTwoPhasePriority,
                      Protocol::kPriorityCeiling, Protocol::kHighPriority,
                      Protocol::kTimestampOrdering, Protocol::kWaitDie,
                      Protocol::kWoundWait));

TEST(DeterminismTest, GlobalSchemeReplaysExactly) {
  const auto cfg =
      config_for(Protocol::kPriorityCeiling, DistScheme::kGlobalCeiling);
  EXPECT_EQ(run_signature(cfg), run_signature(cfg));
}

TEST(DeterminismTest, LocalSchemeReplaysExactly) {
  const auto cfg =
      config_for(Protocol::kPriorityCeiling, DistScheme::kLocalCeiling);
  EXPECT_EQ(run_signature(cfg), run_signature(cfg));
}

}  // namespace
}  // namespace rtdb::core
