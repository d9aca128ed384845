#pragma once

// The benchmark's workloads: which cells each one runs, how a cell is run
// through the public API, and the exact counts read back from the public
// counters afterwards.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "harness.hpp"

namespace perfbench {

enum class Workload { kSingleSite, kDistScale, kRtThreads };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);
inline bool on_threads(Workload workload) {
  return workload == Workload::kRtThreads;
}

// The seed the recorded check values belong to.
inline constexpr std::uint64_t kDefaultSeed = 1;

// kFull is the timed pass; kCheck is the shorter pass run at the default
// seed during set-up, whose outputs are compared with the recorded ones.
enum class Scale { kFull, kCheck };

// One seeded run of one configuration. The runs of a configuration form a
// group ("C/size12", "partitioned/zipf0.9/chaos"); results are reported
// and checked per group.
struct Cell {
  std::string group;
  std::uint64_t group_index = 0;
  int run = 0;
  rtdb::core::SystemConfig config;
};

std::vector<Cell> make_cells(Workload workload, std::uint64_t seed,
                             Scale scale);

// Worker threads the thread workload uses: one per core but one, so the
// dispatcher (the calling thread) keeps a core of its own.
std::uint32_t rt_workers();

// What one run of a cell produced, summed from the public counters. Every
// field is a whole number; the simulated ones repeat exactly per seed.
struct Counts {
  std::uint64_t processed = 0;
  std::uint64_t committed = 0;
  std::uint64_t met = 0;  // committed by the deadline
  std::uint64_t shed = 0;
  std::uint64_t attempts = 0;  // attempts of processed transactions
  std::uint64_t objects = 0;   // objects accessed by committed ones
  std::uint64_t elapsed_ticks = 0;
  std::uint64_t cpu_busy_ticks = 0;
  std::uint64_t cpu_capacity_ticks = 0;  // elapsed x cores, all sites
  std::uint64_t events = 0;
  std::uint64_t grants = 0;
  std::uint64_t blocks = 0;
  std::uint64_t dynamic_deadlocks = 0;
  std::uint64_t restarts = 0;
  std::uint64_t deadline_kills = 0;
  std::uint64_t commit_rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t batched = 0;
  std::uint64_t flushes = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t manager_requests = 0;
  std::uint64_t manager_denials = 0;
  std::uint64_t replica_updates = 0;
  std::uint64_t failovers = 0;
  std::uint64_t shard_migrations = 0;
  std::uint64_t db_accesses = 0;
  // Thread backend only.
  std::uint64_t wounds = 0;
  // Any of these nonzero fails the run.
  std::uint64_t invariant_violations = 0;
  std::uint64_t conformance_violations = 0;
  std::uint64_t body_exceptions = 0;

  Counts& operator+=(const Counts& other);
};

struct CellRun {
  Counts counts;
  // Committed transactions' response times, microseconds, and (threads)
  // the lateness of each first start behind its scheduled arrival.
  std::vector<double> response_us;
  std::vector<double> start_lag_us;
  // Microseconds one tick stands for: 1 simulated, unit_nanos/1000 real.
  double us_per_tick = 1.0;
  // The sim-shaped result (for the artifact probe).
  rtdb::core::RunResult result;
};

// Runs one cell through the public API: core::System + run_to_completion
// on the simulator, rt::run_threaded on threads. Spans (when tracing)
// cover the System construction and each call into the program.
CellRun run_cell(const Cell& cell, int cell_index, Tracer& tracer);

// The exact values the output check compares for one group of runs:
// summed counts and the nearest-rank response percentiles in ticks.
void append_signature(Signature& out, const std::string& prefix,
                      const std::vector<const CellRun*>& runs);

// Why a run counts as failed, or empty when it does not (invariant or
// conformance violations, body exceptions).
std::string failure_of(const CellRun& run);

}  // namespace perfbench
