#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "stats/metrics.hpp"

namespace rtdb::core {

// The results of one run: the monitor's aggregated metrics plus the
// protocol counters the figures and ablations report. System::counters()
// fills every counter field in one pass over the sites; the run_scalars()
// catalog names each one for the artifacts.
struct RunResult {
  stats::Metrics metrics;
  std::uint64_t restarts = 0;
  std::uint64_t deadline_kills = 0;
  std::uint64_t protocol_aborts = 0;
  std::uint64_t ceiling_denials = 0;
  std::uint64_t dynamic_deadlocks = 0;
  sim::Duration elapsed{};
  // Fault-injection / commit-protocol counters (all 0 in fault-free
  // single-site runs).
  std::uint64_t commit_rounds = 0;
  std::uint64_t commit_aborts = 0;
  std::uint64_t vote_timeouts = 0;
  std::uint64_t presumed_aborts = 0;
  std::uint64_t fault_drops = 0;
  std::uint64_t fault_dups = 0;
  std::uint64_t msgs_dropped = 0;
  std::uint64_t crashes = 0;
  std::uint64_t crash_kills = 0;
  std::uint64_t versions_recovered = 0;
  // Resilience counters (reliable channel / failover / cooperative
  // termination; all 0 in fault-free runs).
  std::uint64_t retransmissions = 0;
  double backoff_wait_units = 0.0;
  std::uint64_t failovers = 0;
  std::uint64_t termination_queries = 0;
  std::uint64_t termination_resolutions = 0;
  std::uint64_t orphan_locks_reclaimed = 0;
  // Post-run audit failures (faulty runs only; see
  // System::invariant_violations). Anything nonzero is a bug.
  std::uint64_t invariant_violations = 0;
  // Online conformance auditing (src/check; populated only when
  // config.conformance_check). Violations nonzero means a protocol broke
  // one of its own invariants mid-run — always a bug. Wait cycles and the
  // inversion span are measurements, not verdicts.
  std::uint64_t conformance_violations = 0;
  std::uint64_t wait_cycles_detected = 0;
  double max_inversion_span_units = 0.0;
  // Partition tolerance / overload shedding (all 0 without --partition /
  // admission control; admitted mirrors arrived then).
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t stale_grants_rejected = 0;
  std::uint64_t partition_drops = 0;
  // Scale-out control plane (all 0 with batching off / outside the
  // partitioned scheme).
  std::uint64_t batched_messages = 0;
  std::uint64_t batch_flushes = 0;
  std::uint64_t shard_migrations = 0;
  // Static blocking-bound analysis (src/analysis). The bound is a pure
  // function of the config and is stamped on every run (0 = the analyzer
  // returned Unbounded); the observed/violation pair needs bounds_check
  // (--bounds). bound_violations nonzero means an observed blocking
  // episode exceeded the analytic worst case — a bug in the protocol or
  // in the bound derivation, either way a defect.
  double bound_blocking_units = 0.0;
  double observed_max_blocking_units = 0.0;
  std::uint64_t bound_violations = 0;
};

}  // namespace rtdb::core
