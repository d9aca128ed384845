#include "core/experiment.hpp"

#include <cstring>
#include <iostream>
#include <mutex>

#include "analysis/bounds.hpp"
#include "rt/runner.hpp"

namespace rtdb::core {

namespace {

// Stable order: the two headline measures first, then lifecycle counts,
// response/blocking, and the protocol counters. Appending is fine;
// reordering or renaming is a schema change.
constexpr RunScalar kRunScalars[] = {
    {"throughput_objects_per_sec",
     [](const RunResult& r) { return r.metrics.throughput_objects_per_sec; }},
    {"pct_missed", [](const RunResult& r) { return r.metrics.pct_missed; }},
    {"arrived",
     [](const RunResult& r) { return static_cast<double>(r.metrics.arrived); }},
    {"processed",
     [](const RunResult& r) {
       return static_cast<double>(r.metrics.processed);
     }},
    {"committed",
     [](const RunResult& r) {
       return static_cast<double>(r.metrics.committed);
     }},
    {"missed",
     [](const RunResult& r) { return static_cast<double>(r.metrics.missed); }},
    {"avg_response_units",
     [](const RunResult& r) { return r.metrics.avg_response_units; }},
    {"avg_blocked_units",
     [](const RunResult& r) { return r.metrics.avg_blocked_units; }},
    {"restarts",
     [](const RunResult& r) { return static_cast<double>(r.restarts); }},
    {"deadline_kills",
     [](const RunResult& r) { return static_cast<double>(r.deadline_kills); }},
    {"protocol_aborts",
     [](const RunResult& r) { return static_cast<double>(r.protocol_aborts); }},
    {"ceiling_denials",
     [](const RunResult& r) { return static_cast<double>(r.ceiling_denials); }},
    {"ceiling_blocks",
     [](const RunResult& r) {
       return static_cast<double>(r.metrics.total_ceiling_blocks);
     }},
    {"dynamic_deadlocks",
     [](const RunResult& r) {
       return static_cast<double>(r.dynamic_deadlocks);
     }},
    {"elapsed_units",
     [](const RunResult& r) { return r.elapsed.as_units(); }},
    // Appended by the fault-injection work (schema-compatible: new columns
    // only, stable order preserved).
    {"commit_rounds",
     [](const RunResult& r) { return static_cast<double>(r.commit_rounds); }},
    {"commit_aborts",
     [](const RunResult& r) { return static_cast<double>(r.commit_aborts); }},
    {"vote_timeouts",
     [](const RunResult& r) { return static_cast<double>(r.vote_timeouts); }},
    {"presumed_aborts",
     [](const RunResult& r) {
       return static_cast<double>(r.presumed_aborts);
     }},
    {"fault_drops",
     [](const RunResult& r) { return static_cast<double>(r.fault_drops); }},
    {"fault_dups",
     [](const RunResult& r) { return static_cast<double>(r.fault_dups); }},
    {"msgs_dropped",
     [](const RunResult& r) { return static_cast<double>(r.msgs_dropped); }},
    {"crashes",
     [](const RunResult& r) { return static_cast<double>(r.crashes); }},
    {"crash_kills",
     [](const RunResult& r) { return static_cast<double>(r.crash_kills); }},
    {"versions_recovered",
     [](const RunResult& r) {
       return static_cast<double>(r.versions_recovered);
     }},
    // Appended by the resilience work (failover, reliable channel, 2PC
    // cooperative termination) — again new columns only, stable order.
    {"retransmissions",
     [](const RunResult& r) {
       return static_cast<double>(r.retransmissions);
     }},
    {"backoff_wait_units",
     [](const RunResult& r) { return r.backoff_wait_units; }},
    {"failovers",
     [](const RunResult& r) { return static_cast<double>(r.failovers); }},
    {"termination_queries",
     [](const RunResult& r) {
       return static_cast<double>(r.termination_queries);
     }},
    {"termination_resolutions",
     [](const RunResult& r) {
       return static_cast<double>(r.termination_resolutions);
     }},
    {"orphan_locks_reclaimed",
     [](const RunResult& r) {
       return static_cast<double>(r.orphan_locks_reclaimed);
     }},
    {"invariant_violations",
     [](const RunResult& r) {
       return static_cast<double>(r.invariant_violations);
     }},
    // Appended by the conformance checker (--check / RTDB_CHECK); all 0
    // when the monitor is off.
    {"conformance_violations",
     [](const RunResult& r) {
       return static_cast<double>(r.conformance_violations);
     }},
    {"wait_cycles_detected",
     [](const RunResult& r) {
       return static_cast<double>(r.wait_cycles_detected);
     }},
    {"max_inversion_span_units",
     [](const RunResult& r) { return r.max_inversion_span_units; }},
    // Appended by the partition-tolerance work (lease-fenced ceiling
    // management, deadline-aware shedding) — new columns only, stable order.
    {"admitted",
     [](const RunResult& r) { return static_cast<double>(r.admitted); }},
    {"shed", [](const RunResult& r) { return static_cast<double>(r.shed); }},
    {"lease_expiries",
     [](const RunResult& r) {
       return static_cast<double>(r.lease_expiries);
     }},
    {"stale_grants_rejected",
     [](const RunResult& r) {
       return static_cast<double>(r.stale_grants_rejected);
     }},
    {"partition_drops",
     [](const RunResult& r) {
       return static_cast<double>(r.partition_drops);
     }},
    // Appended by the scale-out control plane (message batching,
    // partitioned ceiling managers) — new columns only, stable order.
    {"batched_messages",
     [](const RunResult& r) {
       return static_cast<double>(r.batched_messages);
     }},
    {"batch_flushes",
     [](const RunResult& r) { return static_cast<double>(r.batch_flushes); }},
    {"shard_migrations",
     [](const RunResult& r) {
       return static_cast<double>(r.shard_migrations);
     }},
    // Appended by the static blocking-bound analyzer (src/analysis) — new
    // columns only, stable order. The bound is stamped on every run (0 =
    // no finite bound); observed/violations need --bounds.
    {"bound_blocking_units",
     [](const RunResult& r) { return r.bound_blocking_units; }},
    {"observed_max_blocking_units",
     [](const RunResult& r) { return r.observed_max_blocking_units; }},
    {"bound_violations",
     [](const RunResult& r) {
       return static_cast<double>(r.bound_violations);
     }},
};

// Runs the cell on the real-hardware thread backend (src/rt) and maps its
// result onto the sim-shaped RunResult so tables, artifacts, and
// aggregation treat both backends uniformly. Fields without a thread-side
// counterpart (commit protocol, faults, resilience) stay zero — the thread
// backend is single-site and fault-free by construction.
RunResult run_once_threaded(const SystemConfig& config) {
  const analysis::BlockingBounds bounds = analysis::analyze(config);
  rt::RtRunnerConfig runner_config;
  runner_config.workers = config.rt_workers;
  runner_config.unit_nanos = config.rt_unit_nanos;
  if (config.bounds_check && bounds.bounded) {
    runner_config.bound_gate = bounds.worst_bound;
  }
  const rt::RtRunResult rt = rt::run_threaded(config, runner_config);

  RunResult result;
  result.metrics = stats::Metrics::compute(rt.records, rt.elapsed);
  result.restarts = rt.restarts;
  result.deadline_kills = rt.deadline_kills;
  result.protocol_aborts = rt.locks.protocol_aborts;
  result.ceiling_denials = rt.locks.ceiling_denials;
  result.dynamic_deadlocks = rt.locks.pcp_dynamic_deadlocks;
  result.elapsed = rt.elapsed;
  result.conformance_violations = rt.conformance_violations;
  result.wait_cycles_detected = rt.locks.deadlocks;
  // No shedding on the thread backend: everything that arrived was admitted.
  result.admitted = rt.records.size();
  result.bound_blocking_units = bounds.worst_bound_units();
  if (config.bounds_check || config.conformance_check) {
    result.observed_max_blocking_units = rt.locks.max_block_span.as_units();
    result.bound_violations = rt.locks.bound_violations;
  }
  if (rt.conformance_violations > 0) {
    static std::mutex report_mutex;
    const std::lock_guard<std::mutex> guard(report_mutex);
    std::cerr << "[check] threads backend, seed " << config.seed
              << ", protocol " << to_string(config.protocol) << ": "
              << rt.conformance_violations << " violation(s)";
    if (!rt.quiescence_failure.empty()) {
      std::cerr << " (" << rt.quiescence_failure << ")";
    }
    if (rt.body_exceptions > 0) {
      std::cerr << " (" << rt.body_exceptions << " body exception(s))";
    }
    std::cerr << "\n";
  }
  return result;
}

}  // namespace

std::span<const RunScalar> run_scalars() { return kRunScalars; }

const RunScalar* find_run_scalar(std::string_view name) {
  for (const RunScalar& s : kRunScalars) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

RunResult ExperimentRunner::run_once(const SystemConfig& config) {
  if (config.backend == BackendKind::kThreads) {
    return run_once_threaded(config);
  }
  System system{config};
  system.run_to_completion();
  RunResult result = system.counters();
  result.metrics = system.metrics();
  if (config.faults.active()) {
    result.invariant_violations = system.invariant_violations();
  }
  result.bound_blocking_units =
      analysis::analyze(config).worst_bound_units();
  if (result.conformance_violations > 0 || result.bound_violations > 0) {
    // Sweep workers call run_once concurrently; keep the reports whole.
    static std::mutex report_mutex;
    const std::lock_guard<std::mutex> guard(report_mutex);
    std::cerr << "[check] seed " << config.seed << ", protocol "
              << to_string(config.protocol) << ", scheme "
              << to_string(config.scheme) << ":\n"
              << system.conformance()->format_reports();
  }
  return result;
}

std::vector<RunResult> ExperimentRunner::run_many(SystemConfig config,
                                                  int runs) {
  std::vector<RunResult> results;
  results.reserve(static_cast<std::size_t>(runs));
  const std::uint64_t base_seed = config.seed;
  for (int i = 0; i < runs; ++i) {
    config.seed = seed_for_run(base_seed, i);
    results.push_back(run_once(config));
  }
  return results;
}

stats::RunAggregate ExperimentRunner::aggregate(
    std::span<const RunResult> results, const Extractor& extract) {
  std::vector<double> samples;
  samples.reserve(results.size());
  for (const RunResult& r : results) samples.push_back(extract(r));
  return stats::RunAggregate::over(samples);
}

double ExperimentRunner::mean_throughput(std::span<const RunResult> results) {
  return aggregate(results, [](const RunResult& r) {
           return r.metrics.throughput_objects_per_sec;
         })
      .mean;
}

double ExperimentRunner::mean_pct_missed(std::span<const RunResult> results) {
  return aggregate(results,
                   [](const RunResult& r) { return r.metrics.pct_missed; })
      .mean;
}

}  // namespace rtdb::core
