#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "core/run_result.hpp"
#include "core/system.hpp"
#include "stats/metrics.hpp"

namespace rtdb::core {

// A named per-run scalar — the catalog below is the single list the text
// tables, the JSON/CSV artifacts, and ad-hoc aggregation all draw from.
struct RunScalar {
  const char* name;
  double (*extract)(const RunResult&);
};

// Every counter and derived measure a RunResult carries, in the stable
// order the artifact schema documents.
std::span<const RunScalar> run_scalars();

// Looks a scalar up by name; nullptr when unknown.
const RunScalar* find_run_scalar(std::string_view name);

// Runs experiment cells: one cell = one SystemConfig executed with
// several seeds (the paper averages 10 runs per point).
class ExperimentRunner {
 public:
  static constexpr int kDefaultRuns = 10;

  // The seed of run `run` of a cell whose base seed is `base` — one rule,
  // shared by run_many and the parallel sweep engine so that their results
  // are interchangeable.
  static std::uint64_t seed_for_run(std::uint64_t base, int run) {
    return base + static_cast<std::uint64_t>(run);
  }

  // Builds a System from the config, runs the batch to completion, and
  // collects results.
  static RunResult run_once(const SystemConfig& config);

  // Runs with seeds config.seed, config.seed + 1, ... (one per run).
  static std::vector<RunResult> run_many(SystemConfig config,
                                         int runs = kDefaultRuns);

  // Aggregate any per-run scalar across results.
  using Extractor = std::function<double(const RunResult&)>;
  static stats::RunAggregate aggregate(std::span<const RunResult> results,
                                       const Extractor& extract);

  // The two headline measures.
  static double mean_throughput(std::span<const RunResult> results);
  static double mean_pct_missed(std::span<const RunResult> results);
};

}  // namespace rtdb::core
