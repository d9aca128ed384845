// perfbench: the repository benchmark. One invocation runs one workload
// for a fixed time, checks its outputs, and prints every metric by name
// and unit; the last line of standard output is the JSON result.
//
//   perfbench --workload single_site|dist_scale|rt_threads --seed N
//             --seconds S --trace 0|1 [--expected FILE] [--trace-out FILE]
//             [--setup-samples S1,S2,...]
//   perfbench --workload W --seed N --setup-only   (print one set-up time)
//   perfbench --workload W --record FILE   (re-record the check values)
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics and writes the spans as a Chrome trace. setup_s is the median of
// this process's set-up time and the --setup-samples, which run.py takes
// from separate --setup-only processes. See README.md.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "harness.hpp"
#include "host_speed.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using rtdb::exp::Json;
using Clock = std::chrono::steady_clock;

// Reference blocks that gauge the host right after set-up.
constexpr int kGaugeBlocks = 15;
// Transactions per configuration handed to the probes.
constexpr std::size_t kProbeSpecsPerGroup = 400;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// CPU time of this process, which counts from process start.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// The clock of the timed passes. The simulator is single-threaded and
// CPU-bound, so simulated workloads time it on the process CPU clock. With
// paravirtual steal accounting that clock leaves out time the hypervisor
// gives to other guests. Without steal the two clocks agree. Thread runs
// are paced by their arrival schedule and sleep between arrivals, so they
// are timed on the wall clock.
class HostClock {
 public:
  HostClock(bool wall, Clock::time_point process_start)
      : wall_(wall), epoch_(process_start) {}
  // Seconds since process start.
  double now() const { return wall_ ? seconds_since(epoch_) : cpu_seconds(); }

 private:
  bool wall_;
  Clock::time_point epoch_;
};

struct Options {
  Workload workload = Workload::kSingleSite;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path = "perfbench/expected.json";
  std::string trace_out;
  std::string record_path;
  bool setup_only = false;
  std::vector<double> setup_samples;  // set-up times of other processes
};

bool parse(int argc, char** argv, Options& opt, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + arg;
      return false;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const auto w = parse_workload(value);
      if (!w) {
        error = "unknown workload " + value;
        return false;
      }
      opt.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
    } else if (arg == "--expected") {
      opt.expected_path = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else if (arg == "--record") {
      opt.record_path = value;
    } else if (arg == "--setup-samples") {
      std::stringstream list(value);
      std::string item;
      while (std::getline(list, item, ',')) {
        opt.setup_samples.push_back(std::strtod(item.c_str(), nullptr));
      }
    } else {
      error = "unknown argument " + arg;
      return false;
    }
  }
  if (!have_workload) error = "--workload is required";
  if (opt.seconds <= 0.0) error = "--seconds must be positive";
  return error.empty();
}

std::optional<Json> read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

// Operations (cell runs) attempted and failed, and what went wrong.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void fail(std::string why) {
    ++failed;
    if (problems.size() < 20) problems.push_back(std::move(why));
  }
};

// The runs of each group, by index into a cell list (groups are
// contiguous, in group_index order).
std::vector<std::vector<std::size_t>> groups_of(const std::vector<Cell>& cells) {
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (groups.size() <= cells[i].group_index) groups.emplace_back();
    groups.back().push_back(i);
  }
  return groups;
}

Signature subset(const Signature& sig, const std::string& prefix) {
  Signature out;
  for (const auto& kv : sig) {
    if (kv.first.rfind(prefix, 0) == 0) out.push_back(kv);
  }
  return out;
}

// Counts a pass's runs as operations; a run that reports a violation
// fails.
void count_runs(Outcome& outcome, const std::string& what,
                const std::vector<Cell>& cells,
                const std::vector<CellRun>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    ++outcome.attempted;
    const std::string failure = failure_of(runs[i]);
    if (!failure.empty()) {
      outcome.fail(what + " " + cells[i].group + " run " +
                   std::to_string(cells[i].run) + ": " + failure);
    }
  }
}

// Returns a pass's signature; when `expected` is given, each group whose
// exact values differ from the expected ones fails.
Signature check_groups(Outcome& outcome, const std::string& what,
                       const std::vector<Cell>& cells,
                       const std::vector<CellRun>& runs,
                       const Signature* expected) {
  Signature all;
  for (const auto& group : groups_of(cells)) {
    std::vector<const CellRun*> members;
    for (const std::size_t i : group) members.push_back(&runs[i]);
    const std::string prefix = cells[group.front()].group + ".";
    Signature sig;
    append_signature(sig, prefix, members);
    all.insert(all.end(), sig.begin(), sig.end());
    if (expected == nullptr) continue;
    const auto mismatches = compare(subset(*expected, prefix), sig);
    if (!mismatches.empty()) {
      outcome.fail(what + " " + describe(mismatches.front()) + " (" +
                   std::to_string(mismatches.size()) + " value(s) differ)");
    }
  }
  return all;
}

struct Pass {
  // Kept for the first simulated pass and for every thread pass; a later
  // simulated pass repeats the first, so only its times are kept.
  std::vector<Cell> cells;
  std::vector<CellRun> runs;
  std::vector<double> cell_seconds;
  std::vector<std::uint64_t> processed;  // transactions, per cell
  // How many times slower than nominal the host ran the reference blocks
  // between this pass's cells; 1 when none ran.
  double slowness = 1.0;
  bool traced = false;
};

// Runs every cell once. With a `reference`, one reference block runs
// before each cell, so the pass's slowness samples the host all through
// the pass.
Pass run_pass(std::vector<Cell> cells, Tracer& tracer, const HostClock& clock,
              HostReference* reference) {
  Pass pass;
  pass.traced = tracer.enabled();
  std::vector<double> blocks;
  auto span = tracer.scope("pass");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (reference != nullptr) {
      const double b0 = clock.now();
      reference->run_block();
      blocks.push_back(clock.now() - b0);
    }
    const double t0 = clock.now();
    auto cell_span = tracer.scope("cell", static_cast<int>(i));
    pass.runs.push_back(run_cell(cells[i], static_cast<int>(i), tracer));
    pass.cell_seconds.push_back(clock.now() - t0);
    pass.processed.push_back(pass.runs.back().counts.processed);
  }
  pass.slowness = slowness(blocks);
  pass.cells = std::move(cells);
  return pass;
}

// Transactions per host second over a set of passes of the same cells:
// each cell's time (divided by its pass's slowness when `normalise`) is
// the median over the passes, so a pass disturbed by another process on
// the host moves the figure less than a total would.
double median_rate(const std::vector<const Pass*>& passes, bool normalise) {
  if (passes.empty()) return 0.0;
  double processed = 0.0;
  double seconds = 0.0;
  for (std::size_t i = 0; i < passes.front()->cell_seconds.size(); ++i) {
    std::vector<double> times;
    for (const Pass* pass : passes) {
      times.push_back(pass->cell_seconds[i] /
                      (normalise ? pass->slowness : 1.0));
    }
    processed += static_cast<double>(passes.front()->processed[i]);
    seconds += median(times);
  }
  return seconds > 0.0 ? processed / seconds : 0.0;
}

// Transactions per wall second over every run of every pass (threads: the
// arrivals pace the run and each pass draws new ones).
double total_rate(const std::vector<const Pass*>& passes) {
  double processed = 0.0;
  double seconds = 0.0;
  for (const Pass* pass : passes) {
    for (std::size_t i = 0; i < pass->cell_seconds.size(); ++i) {
      processed += static_cast<double>(pass->processed[i]);
      seconds += pass->cell_seconds[i];
    }
  }
  return seconds > 0.0 ? processed / seconds : 0.0;
}

// The simulator's speed in transactions per nominal-host second; on
// threads, the processing rate at the offered load.
double txn_per_s(const std::vector<const Pass*>& passes, bool threads) {
  return threads ? total_rate(passes) : median_rate(passes, true);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

// What the metrics are computed from, pooled over the passes that count:
// the first pass on the simulator (the others repeat it exactly), every
// pass on threads.
struct Pool {
  Counts counts;
  std::vector<double> response_us;
  std::vector<std::vector<double>> group_response_us;
  std::vector<double> start_lag_us;
  double elapsed_s = 0.0;
  double us_per_tick = 1.0;
};

Pool pool_of(const std::vector<Pass>& passes, bool threads) {
  Pool pool;
  for (const Pass& pass : passes) {
    for (std::size_t i = 0; i < pass.runs.size(); ++i) {
      const CellRun& run = pass.runs[i];
      const std::size_t group = pass.cells[i].group_index;
      if (pool.group_response_us.size() <= group) {
        pool.group_response_us.resize(group + 1);
      }
      pool.counts += run.counts;
      auto append = [](std::vector<double>& to, const std::vector<double>& v) {
        to.insert(to.end(), v.begin(), v.end());
      };
      append(pool.response_us, run.response_us);
      append(pool.group_response_us[group], run.response_us);
      append(pool.start_lag_us, run.start_lag_us);
      pool.elapsed_s += static_cast<double>(run.counts.elapsed_ticks) *
                        run.us_per_tick / 1e6;
      pool.us_per_tick = run.us_per_tick;
    }
    if (!threads) break;
  }
  return pool;
}

std::string samples_note(std::size_t n, double q) {
  std::string note = "n=" + std::to_string(n);
  if (!percentile_reportable(n, q)) note += ", fewer than 10 beyond";
  return note;
}

// The median response of each configuration, averaged over the
// configurations. The configurations are separate operating points whose
// responses differ by up to 30x; pooled, their median falls in a gap
// between them and jumps 7-30% with the seed. Averaged, the slow and
// steady configurations weigh most, and the figure held within ~2%.
Metric group_median(const Pool& pool) {
  double sum = 0.0;
  std::size_t groups = 0;
  std::size_t thin = 0;
  for (const std::vector<double>& responses : pool.group_response_us) {
    if (responses.empty()) continue;
    sum += grouped_percentile(responses, 0.50, pool.us_per_tick);
    ++groups;
    if (!percentile_reportable(responses.size(), 0.50)) ++thin;
  }
  std::string note =
      "mean of " + std::to_string(groups) + " configuration medians";
  if (thin > 0) {
    note += ", " + std::to_string(thin) + " with fewer than 10 beyond";
  }
  return {"resp_p50_us", groups > 0 ? sum / static_cast<double>(groups) : 0.0,
          "us", note};
}

std::string fixed(double value, int digits) {
  char text[32];
  std::snprintf(text, sizeof text, "%.*f", digits, value);
  return text;
}

// How the simulator's rate was normalised: the passes' slowness and the
// rate before it was divided out.
std::string rate_note(const std::vector<const Pass*>& passes, bool threads) {
  std::string note = std::to_string(passes.size()) + " passes";
  if (threads) return note + ", wall clock";
  std::vector<double> per_pass;
  for (const Pass* pass : passes) per_pass.push_back(pass->slowness);
  return note + "; host " + fixed(median(per_pass), 3) +
         "x nominal, unnormalised " + fixed(median_rate(passes, false), 1) +
         "/s";
}

std::vector<Metric> end_to_end(const Options& opt,
                               const std::vector<Pass>& passes,
                               double setup_seconds, double peak_rss) {
  const bool threads = on_threads(opt.workload);
  const Pool pool = pool_of(passes, threads);
  const Counts& c = pool.counts;
  std::vector<const Pass*> all;
  for (const Pass& pass : passes) all.push_back(&pass);
  std::vector<double> setups = opt.setup_samples;
  setups.push_back(setup_seconds);
  return {
      {"txn_per_s", txn_per_s(all, threads), "1/s", rate_note(all, threads)},
      {"setup_s", median(setups), "s",
       "median of " + std::to_string(setups.size()) + " processes"},
      {"peak_rss_mb", peak_rss, "MB", "set-up and the first pass"},
      {"objects_per_s",
       pool.elapsed_s > 0 ? static_cast<double>(c.objects) / pool.elapsed_s
                          : 0.0,
       "obj/s", threads ? "real" : "simulated"},
      {"deadline_met_pct", 100.0 * ratio(c.met, c.processed + c.shed), "%",
       std::to_string(c.processed + c.shed) + " transactions"},
      group_median(pool),
      {"resp_p99_us",
       grouped_percentile(pool.response_us, 0.99, pool.us_per_tick), "us",
       "all runs pooled, " + samples_note(pool.response_us.size(), 0.99)},
  };
}

// Median over repetitions of (span self time / items), in the probe's unit.
Metric run_probe(const Probe& probe, const ProbeInputs& inputs,
                 Tracer& tracer, double budget_s) {
  std::vector<double> per_item;
  const auto t0 = Clock::now();
  while (per_item.size() < 3 ||
         (seconds_since(t0) < budget_s && per_item.size() < 200)) {
    int span = -1;
    const std::uint64_t items = probe.run(inputs, tracer, probe.metric, span);
    if (items == 0 || span < 0) break;
    per_item.push_back(static_cast<double>(tracer.self_time_ns(span)) /
                       static_cast<double>(items) / probe.ns_per_unit);
  }
  return {probe.metric, median(per_item), probe.unit,
          std::to_string(per_item.size()) + " reps"};
}

// Conformance monitor cost: the single_site check pass with the online
// checker off, then on; median over repetitions of the wall-time increase.
Metric check_overhead(Tracer& tracer, double budget_s) {
  std::vector<Cell> off =
      make_cells(Workload::kSingleSite, kDefaultSeed, Scale::kCheck);
  std::vector<Cell> on = off;
  for (Cell& cell : on) cell.config.conformance_check = true;
  Tracer quiet{false};
  std::vector<double> overhead;
  const auto t0 = Clock::now();
  while (overhead.size() < 3 ||
         (seconds_since(t0) < budget_s && overhead.size() < 50)) {
    int spans[2] = {-1, -1};
    for (int side = 0; side < 2; ++side) {
      auto scope = tracer.scope(side == 0 ? "check.off" : "check.on");
      spans[side] = scope.index();
      for (const Cell& cell : side == 0 ? off : on) {
        (void)run_cell(cell, -1, quiet);
      }
    }
    const auto off_ns = static_cast<double>(tracer.self_time_ns(spans[0]));
    const auto on_ns = static_cast<double>(tracer.self_time_ns(spans[1]));
    overhead.push_back(100.0 * (on_ns / off_ns - 1.0));
  }
  return {"check.overhead_pct", median(overhead), "%",
          std::to_string(overhead.size()) + " reps"};
}

std::vector<Metric> per_layer(const Options& opt,
                              const std::vector<Pass>& passes,
                              Tracer& tracer, Clock::time_point timed_start,
                              Outcome& outcome) {
  const bool threads = on_threads(opt.workload);
  const Pool pool = pool_of(passes, threads);
  const Counts& c = pool.counts;
  const std::uint64_t n = c.processed;
  // Simulator layers a workload does not run read 0.
  auto sim_only = [threads](double v) { return threads ? 0.0 : v; };

  // The thread backend's own counts come from the thread passes; a
  // simulated workload runs one pass of the rt_threads cells for them.
  Pool rt = pool;
  if (!threads) {
    std::vector<Pass> rt_passes;
    rt_passes.push_back(
        run_pass(make_cells(Workload::kRtThreads, opt.seed, Scale::kFull),
                 tracer, HostClock{true, Clock::now()}, nullptr));
    count_runs(outcome, "thread pass", rt_passes.front().cells,
               rt_passes.front().runs);
    rt = pool_of(rt_passes, true);
  }

  std::vector<const Pass*> plain;
  std::vector<const Pass*> traced;
  for (const Pass& pass : passes) {
    (pass.traced ? traced : plain).push_back(&pass);
  }
  const double plain_rate = txn_per_s(plain, threads);
  const double traced_rate = txn_per_s(traced, threads);

  std::vector<Metric> out = {
      {"sim.events_per_txn", sim_only(ratio(c.events, n)), "events/txn", ""},
      {"sched.cpu_util_pct",
       sim_only(100.0 * ratio(c.cpu_busy_ticks, c.cpu_capacity_ticks)), "%",
       "simulated"},
      {"cc.grants_per_txn", sim_only(ratio(c.grants, n)), "grants/txn", ""},
      {"cc.blocks_per_txn", sim_only(ratio(c.blocks, n)), "blocks/txn", ""},
      {"cc.dynamic_deadlocks_per_txn", sim_only(ratio(c.dynamic_deadlocks, n)),
       "cycles/txn", ""},
      {"cc.useful_attempt_pct",
       sim_only(100.0 * ratio(c.committed, c.attempts)), "%",
       "committed/attempts"},
      {"txn.restarts_per_txn", sim_only(ratio(c.restarts, n)), "restarts/txn",
       ""},
      {"txn.deadline_kills_per_txn", sim_only(ratio(c.deadline_kills, n)),
       "kills/txn", ""},
      {"txn.commit_rounds_per_txn", sim_only(ratio(c.commit_rounds, n)),
       "rounds/txn", ""},
      {"net.msgs_per_txn", sim_only(ratio(c.messages, n)), "msgs/txn", ""},
      {"net.batch_fill", sim_only(ratio(c.batched, c.flushes)), "msgs/flush",
       ""},
      {"net.retransmits_per_txn", sim_only(ratio(c.retransmits, n)),
       "msgs/txn", ""},
      {"dist.manager_requests_per_txn", sim_only(ratio(c.manager_requests, n)),
       "requests/txn", ""},
      {"dist.manager_denials_per_txn", sim_only(ratio(c.manager_denials, n)),
       "denials/txn", ""},
      {"dist.replica_updates_per_txn", sim_only(ratio(c.replica_updates, n)),
       "updates/txn", ""},
      {"dist.failovers", sim_only(static_cast<double>(c.failovers)), "count",
       "per pass"},
      {"dist.shard_migrations",
       sim_only(static_cast<double>(c.shard_migrations)), "count", "per pass"},
      {"db.accesses_per_txn", sim_only(ratio(c.db_accesses, n)),
       "accesses/txn", ""},
      {"rt.start_lag_p99_us",
       grouped_percentile(rt.start_lag_us, 0.99, rt.us_per_tick), "us",
       samples_note(rt.start_lag_us.size(), 0.99)},
      {"rt.resp_p99_us",
       grouped_percentile(rt.response_us, 0.99, rt.us_per_tick), "us",
       samples_note(rt.response_us.size(), 0.99)},
      {"rt.restarts_per_txn", ratio(rt.counts.restarts, rt.counts.processed),
       "restarts/txn", ""},
      {"rt.wounds_per_txn", ratio(rt.counts.wounds, rt.counts.processed),
       "wounds/txn", ""},
      {"trace.overhead_pct",
       plain_rate > 0 ? 100.0 * (plain_rate - traced_rate) / plain_rate : 0.0,
       "%", std::to_string(plain.size()) + " plain vs " +
                std::to_string(traced.size()) + " traced passes"},
  };

  // The probes share what is left of the run's time; the checker probe
  // gets two shares.
  const std::vector<Cell> configs =
      make_cells(opt.workload, opt.seed, Scale::kCheck);
  ProbeInputs inputs = make_probe_inputs(configs, kProbeSpecsPerGroup);
  for (const auto& group : groups_of(passes.front().cells)) {
    inputs.results.push_back(passes.front().runs[group.front()].result);
  }
  const double left = opt.seconds - seconds_since(timed_start);
  const double slice =
      std::max(0.05, left / static_cast<double>(probes().size() + 2));
  for (const Probe& probe : probes()) {
    out.push_back(run_probe(probe, inputs, tracer, slice));
  }
  out.push_back(check_overhead(tracer, 2 * slice));
  return out;
}

void print_summary(const Options& opt, const std::vector<Metric>& metrics,
                   const Outcome& outcome) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              workload_name(opt.workload),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %-16s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (const std::string& problem : outcome.problems) {
    std::printf("  FAILED %s\n", problem.c_str());
  }
}

Json result_json(const std::vector<Metric>& metrics, const Outcome& outcome) {
  Json values = Json::object();
  for (const Metric& m : metrics) {
    Json entry = Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    values.set(m.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", outcome.failed == 0);
  out.set("attempted", outcome.attempted);
  out.set("failed", outcome.failed);
  out.set("metrics", std::move(values));
  return out;
}

// Writes this workload's check values (default seed) into `path`, keeping
// the other workloads' entries.
bool record(const std::string& path, Workload workload,
            const Signature& check, const Signature& full) {
  Json doc = Json::object();
  if (auto old = read_json(path); old && old->is_object()) {
    for (const auto& [key, value] : old->members()) {
      if (key != workload_name(workload)) doc.set(key, value);
    }
  }
  Json entry = Json::object();
  entry.set("seed", kDefaultSeed);
  entry.set("check", to_json(check));
  entry.set("full", to_json(full));
  doc.set(workload_name(workload), std::move(entry));
  std::ofstream out(path);
  out << doc.dump(2) << "\n";
  return static_cast<bool>(out);
}

// Loads the recorded exact values of the default seed for a simulated
// workload.
bool load_expected(const Options& opt, Signature& check, Signature& full) {
  const auto doc = read_json(opt.expected_path);
  const Json* entry = doc ? doc->find(workload_name(opt.workload)) : nullptr;
  bool ok_check = false;
  bool ok_full = false;
  if (entry != nullptr && entry->find("check") && entry->find("full")) {
    check = signature_from_json(*entry->find("check"), &ok_check);
    full = signature_from_json(*entry->find("full"), &ok_full);
  }
  return ok_check && ok_full;
}

// Set-up: process start to the first timed pass. It builds the cells of
// the timed passes and constructs every core::System a pass runs, once,
// which warms the allocator and the code the pass runs (a thread cell's
// backend is built inside rt::run_threaded, so only its config is made).
// Returns the time on the process CPU clock, which counts from process
// start, so loading and static initialisation are included.
double set_up(const Options& opt, Tracer& tracer, std::vector<Cell>& cells) {
  auto span = tracer.scope("setup");
  cells = make_cells(opt.workload, opt.seed, Scale::kFull);
  if (!on_threads(opt.workload)) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      auto system_span = tracer.scope("core.System", static_cast<int>(i));
      const rtdb::core::System system{cells[i].config};
    }
  }
  return cpu_seconds();
}

// The host's slowness right now: the median of kGaugeBlocks reference
// blocks on the CPU clock, after one block that warms the caches.
double gauge(HostReference& reference) {
  reference.run_block();
  std::vector<double> blocks;
  for (int i = 0; i < kGaugeBlocks; ++i) {
    const double t0 = cpu_seconds();
    reference.run_block();
    blocks.push_back(cpu_seconds() - t0);
  }
  return slowness(blocks);
}

}  // namespace

int main(int argc, char** argv) {
  const auto process_start = Clock::now();
  Options opt;
  std::string error;
  if (!parse(argc, argv, opt, error)) {
    std::cerr << "perfbench: " << error << "\n";
    return 2;
  }
  const bool threads = on_threads(opt.workload);
  const bool recording = !opt.record_path.empty();
  if (recording && (threads || opt.seed != kDefaultSeed)) {
    std::cerr << "perfbench: --record needs a simulated workload and the "
                 "default seed\n";
    return 2;
  }

  // The recorded exact values of the default seed (simulated workloads).
  Signature expected_check;
  Signature expected_full;
  if (!threads && !recording &&
      !load_expected(opt, expected_check, expected_full)) {
    std::cerr << "perfbench: no recorded values for "
              << workload_name(opt.workload) << " in " << opt.expected_path
              << "\n";
    return 1;
  }

  Tracer tracer{opt.trace};
  Tracer untraced{false};
  Outcome outcome;

  // ---- set-up, in nominal-host seconds ----
  std::vector<Cell> cells;
  const double setup_cpu_s = set_up(opt, tracer, cells);
  HostReference reference;
  const double setup_s = setup_cpu_s / gauge(reference);
  if (opt.setup_only) {
    std::printf("%.9g\n", setup_s);
    return 0;
  }

  // ---- timed passes ----
  // With tracing, half the time goes to passes (alternating untraced and
  // traced) and the rest to the probes.
  const HostClock clock{threads, process_start};
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  const std::size_t min_passes = opt.trace ? 2 : 1;
  const auto timed_start = Clock::now();
  std::vector<Pass> passes;
  Signature first;
  // The peak resident set through set-up and the first pass, which later
  // passes repeat. Read at the end of the run it would grow by about
  // 0.1 MB per pass with the benchmark's own heap fragmentation, so a
  // faster host would read higher.
  double peak_rss = 0.0;
  for (std::uint64_t p = 0;; ++p) {
    // On threads every pass draws fresh arrivals, since more of them make
    // the rate steadier; a traced pass reuses those of the untraced pass
    // before it, so the two compare like for like.
    const bool traced = opt.trace && p % 2 == 1;
    if (threads && p > 0 && !traced) {
      const std::uint64_t variant = opt.trace ? p / 2 : p;
      cells = make_cells(opt.workload, opt.seed * 1000 + variant, Scale::kFull);
    }
    Pass pass = run_pass(cells, traced ? tracer : untraced, clock,
                         threads ? nullptr : &reference);
    const std::string what = "pass " + std::to_string(p);
    count_runs(outcome, what, pass.cells, pass.runs);
    if (!threads && p == 0) {
      // The first pass is the one the others must repeat exactly.
      first = check_groups(outcome, what, pass.cells, pass.runs, nullptr);
    } else if (!threads) {
      check_groups(outcome, what, pass.cells, pass.runs, &first);
      // Its runs repeat the first pass's; dropping them keeps the peak
      // resident set independent of how many passes fit.
      pass.cells = {};
      pass.runs = {};
    }
    passes.push_back(std::move(pass));
    if (p == 0) peak_rss = peak_rss_mb();
    const double elapsed = seconds_since(timed_start);
    const double per_pass = elapsed / static_cast<double>(passes.size());
    if (passes.size() >= min_passes && passes.size() % min_passes == 0 &&
        elapsed + per_pass > budget) {
      break;
    }
  }
  // At the default seed the first pass must match the recorded full pass.
  if (!threads && !recording && opt.seed == kDefaultSeed) {
    check_groups(outcome, "pass 0", passes.front().cells,
                 passes.front().runs, &expected_full);
  }

  // ---- check pass: every configuration once, shorter, at the default
  // seed. Its exact values must match the recorded ones, so a wrong output
  // fails the run whatever --seed is. ----
  Signature check;
  {
    auto span = tracer.scope("check");
    const std::vector<Cell> check_cells =
        make_cells(opt.workload, kDefaultSeed, Scale::kCheck);
    std::vector<CellRun> runs;
    for (std::size_t i = 0; i < check_cells.size(); ++i) {
      runs.push_back(run_cell(check_cells[i], static_cast<int>(i), tracer));
    }
    count_runs(outcome, "check pass", check_cells, runs);
    check = check_groups(outcome, "check pass", check_cells, runs,
                         threads || recording ? nullptr : &expected_check);
  }

  if (recording) {
    if (!record(opt.record_path, opt.workload, check, first)) {
      std::cerr << "perfbench: cannot write " << opt.record_path << "\n";
      return 1;
    }
    std::cerr << "perfbench: recorded " << workload_name(opt.workload)
              << " into " << opt.record_path << "\n";
  }

  const std::vector<Metric> metrics =
      opt.trace ? per_layer(opt, passes, tracer, timed_start, outcome)
                : end_to_end(opt, passes, setup_s, peak_rss);

  if (opt.trace) {
    const std::string path =
        opt.trace_out.empty()
            ? std::string("perfbench-trace-") + workload_name(opt.workload) +
                  ".json"
            : opt.trace_out;
    std::ofstream out(path);
    out << tracer.chrome_trace().dump() << "\n";
    if (!out) {
      std::cerr << "perfbench: cannot write trace " << path << "\n";
      return 1;
    }
    std::printf("trace: %zu spans -> %s\n", tracer.spans().size(),
                path.c_str());
  }

  print_summary(opt, metrics, outcome);
  std::printf("%s\n", result_json(metrics, outcome).dump().c_str());
  return 0;
}
