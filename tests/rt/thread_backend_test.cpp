#include "rt/thread_backend.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/config.hpp"
#include "rt/runner.hpp"

namespace rtdb::rt {
namespace {

// Small but contended: 40 transactions over 20 objects with sizes up to 4
// keeps the lock table busy without making the test slow. unit_nanos is
// tightened so the whole run is a few milliseconds of wall clock.
core::SystemConfig small_config(core::Protocol protocol) {
  core::SystemConfig config;
  config.protocol = protocol;
  config.scheme = core::DistScheme::kSingleSite;
  config.db_objects = 20;
  config.workload.transaction_count = 40;
  config.workload.mean_interarrival = sim::Duration::units(6);
  config.workload.size_min = 1;
  config.workload.size_max = 4;
  config.workload.read_only_fraction = 0.25;
  config.seed = 7;
  config.conformance_check = true;
  return config;
}

TEST(ThreadBackendTest, ClockAdvancesByAtLeastTheRequestedSpan) {
  ThreadBackend backend{{2, 10'000}};
  const sim::TimePoint before = backend.now();
  backend.advance(sim::Duration::units(5));
  const sim::TimePoint after = backend.now();
  EXPECT_GE(after - before, sim::Duration::units(5));
}

TEST(ThreadBackendTest, RunDrainsSpawnedBodies) {
  ThreadBackend backend{{4, 10'000}};
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    backend.spawn("body", [&ran] { ran.fetch_add(1); });
  }
  backend.run();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(backend.body_exceptions(), 0u);
}

TEST(ThreadBackendTest, SpawnedBodyCanSpawnMoreWork) {
  ThreadBackend backend{{2, 10'000}};
  std::atomic<int> ran{0};
  backend.spawn("parent", [&backend, &ran] {
    ran.fetch_add(1);
    backend.spawn("child", [&ran] { ran.fetch_add(1); });
  });
  backend.run();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadBackendTest, WakeBeforeBlockLatches) {
  ThreadBackend backend{{2, 10'000}};
  WaitToken token;
  backend.wake(token);
  // Latched wake: returns true immediately, no timeout needed.
  EXPECT_TRUE(backend.block(token, sim::TimePoint::max()));
}

TEST(ThreadBackendTest, BlockTimesOutAtDeadline) {
  ThreadBackend backend{{2, 10'000}};
  WaitToken token;
  const sim::TimePoint deadline = backend.now() + sim::Duration::units(3);
  EXPECT_FALSE(backend.block(token, deadline));
  EXPECT_GE(backend.now(), deadline);
}

TEST(ThreadBackendTest, BlockedBodyIsWokenFromAnotherBody) {
  ThreadBackend backend{{2, 10'000}};
  WaitToken token;
  std::atomic<bool> woken{false};
  backend.spawn("sleeper", [&backend, &token, &woken] {
    woken.store(backend.block(token, sim::TimePoint::max()));
  });
  backend.spawn("waker", [&backend, &token] {
    backend.advance(sim::Duration::units(2));
    backend.wake(token);
  });
  backend.run();
  EXPECT_TRUE(woken.load());
}

// The acceptance gate of the rt subsystem: every protocol family completes
// a small contended workload on real threads with the conformance audit on
// and reports zero violations — every transaction is accounted for
// (committed or missed), the table ends quiescent, and no body escaped
// with an exception.
class ThreadRunnerAllProtocols
    : public ::testing::TestWithParam<core::Protocol> {};

TEST_P(ThreadRunnerAllProtocols, CompletesAuditCleanWithoutViolations) {
  const core::SystemConfig config = small_config(GetParam());
  const RtRunResult result = run_threaded(config, {2, config.rt_unit_nanos});

  EXPECT_EQ(result.records.size(), config.workload.transaction_count);
  for (const stats::TxnRecord& record : result.records) {
    EXPECT_TRUE(record.processed);
    EXPECT_TRUE(record.committed || record.missed_deadline);
  }
  // Forward progress: the table actually granted locks (commit counts
  // depend on physical timing, so only the weak form is asserted — a
  // sanitizer-slowed run misses more deadlines but still acquires locks).
  EXPECT_GT(result.locks.grants, 0u);
  EXPECT_EQ(result.body_exceptions, 0u);
  EXPECT_EQ(result.locks.audit_violations, 0u)
      << result.quiescence_failure;
  EXPECT_EQ(result.conformance_violations, 0u)
      << result.quiescence_failure;
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ThreadRunnerAllProtocols,
    ::testing::Values(core::Protocol::kTwoPhase,
                      core::Protocol::kTwoPhasePriority,
                      core::Protocol::kPriorityCeiling,
                      core::Protocol::kPriorityCeilingExclusive,
                      core::Protocol::kPriorityInheritance,
                      core::Protocol::kHighPriority,
                      core::Protocol::kTimestampOrdering,
                      core::Protocol::kWaitDie,
                      core::Protocol::kWoundWait),
    [](const ::testing::TestParamInfo<core::Protocol>& info) {
      std::string name = core::to_string(info.param);
      for (char& c : name) {
        if (c == '-' || c == ' ') c = '_';
      }
      return name;
    });

// The runner refuses configurations that need simulation-only machinery
// instead of silently mis-running them.
TEST(ThreadRunnerTest, RejectsDistributedSchemes) {
  core::SystemConfig config = small_config(core::Protocol::kPriorityCeiling);
  config.scheme = core::DistScheme::kGlobalCeiling;
  EXPECT_THROW(run_threaded(config, {2, config.rt_unit_nanos}),
               std::invalid_argument);
}

TEST(ThreadRunnerTest, RejectsPeriodicSources) {
  core::SystemConfig config = small_config(core::Protocol::kPriorityCeiling);
  config.workload.periodic.push_back(
      workload::PeriodicSource{.period = sim::Duration::units(10)});
  EXPECT_THROW(run_threaded(config, {2, config.rt_unit_nanos}),
               std::invalid_argument);
}

// Admission control sheds load in the simulator's transaction manager; the
// thread runner has no shedder, so it must not pretend to honour it.
TEST(ThreadRunnerTest, RejectsAdmissionControl) {
  core::SystemConfig config = small_config(core::Protocol::kPriorityCeiling);
  config.admission.enabled = true;
  EXPECT_THROW(run_threaded(config, {2, config.rt_unit_nanos}),
               std::invalid_argument);
}

// The thread body charges the simulator's cost model: at commit, one write
// I/O per written object, in turn. An uncontended size-4 update then needs
// 4 x (1 read I/O + 2 CPU) + 4 write I/Os = 16 units at least.
TEST(ThreadRunnerTest, CommitChargesOneWriteIoPerWrittenObject) {
  core::SystemConfig config = small_config(core::Protocol::kPriorityCeiling);
  config.workload.transaction_count = 1;
  config.workload.size_min = 4;
  config.workload.size_max = 4;
  config.workload.read_only_fraction = 0.0;
  // A deadline far past the work, so even a slow host commits, and a
  // coarser clock, so wake-up latency stays well under one unit.
  config.workload.slack_min = 50.0;
  config.workload.slack_max = 50.0;
  config.rt_unit_nanos = 100'000;
  ASSERT_EQ(config.cpu_per_object, sim::Duration::units(2));
  ASSERT_EQ(config.io_per_object, sim::Duration::units(1));
  const RtRunResult result = run_threaded(config, {2, config.rt_unit_nanos});
  ASSERT_EQ(result.records.size(), 1u);
  const stats::TxnRecord& record = result.records.front();
  ASSERT_TRUE(record.committed);
  EXPECT_GE(record.response(), sim::Duration::units(16));
}

// Lock granularity > 1 exercises the coarsened access sets end to end.
TEST(ThreadRunnerTest, CoarseGranularityRunsAuditClean) {
  core::SystemConfig config = small_config(core::Protocol::kTwoPhase);
  config.lock_granularity = 5;
  const RtRunResult result = run_threaded(config, {2, config.rt_unit_nanos});
  EXPECT_EQ(result.conformance_violations, 0u) << result.quiescence_failure;
}

}  // namespace
}  // namespace rtdb::rt
