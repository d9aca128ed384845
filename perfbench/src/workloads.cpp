#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <thread>

#include "core/system.hpp"
#include "params.hpp"
#include "rt/runner.hpp"

namespace perfbench {

using rtdb::core::DistScheme;
using rtdb::core::Protocol;
using rtdb::core::SystemConfig;

namespace {

constexpr Protocol kFigProtocols[] = {Protocol::kPriorityCeiling,
                                      Protocol::kTwoPhasePriority,
                                      Protocol::kTwoPhase};

// Seeded runs per configuration and transactions per run. The full pass
// runs each configuration the way its figure sweep does: 10 runs of 400
// transactions for Fig 2/3 (36k transactions), runs of 30 transactions
// per site for the scale sweep, 5 of them rather than the sweep's 3 (48k
// transactions) because several 32-site configurations commit only a few
// dozen per run. The check pass runs each configuration once, shorter. On
// threads every pass draws fresh arrivals instead.
struct Batch {
  int runs;
  std::uint64_t transactions;
};

Batch batch(Workload workload, Scale scale) {
  const bool full = scale == Scale::kFull;
  switch (workload) {
    case Workload::kSingleSite:
      return {full ? 10 : 1, 400};
    case Workload::kDistScale:
      return {full ? 5 : 1, full ? 960u : 240u};
    case Workload::kRtThreads:
      return {1, full ? 1000u : 100u};
  }
  return {0, 0};
}

// Adds `batch.runs` seeded runs of `cfg` as one group. Seeds are distinct
// across groups, runs and workload seeds.
void add_group(std::vector<Cell>& cells, std::uint64_t seed,
               std::string group, SystemConfig cfg, Batch runs) {
  const std::uint64_t group_index =
      cells.empty() ? 0 : cells.back().group_index + 1;
  cfg.workload.transaction_count = runs.transactions;
  for (int run = 0; run < runs.runs; ++run) {
    cfg.seed = seed * 1000 + group_index * 10 + static_cast<std::uint64_t>(run) + 1;
    cells.push_back({group, group_index, run, cfg});
  }
}

void single_site_cells(std::vector<Cell>& cells, std::uint64_t seed,
                       Batch runs) {
  for (const Protocol protocol : kFigProtocols) {
    for (const std::uint32_t size : {12u, 16u, 20u}) {
      add_group(cells, seed,
                std::string(rtdb::bench::curve_label(protocol)) + "/size" +
                    std::to_string(size),
                rtdb::bench::fig23_config(protocol, size, 0), runs);
    }
  }
}

// The 32-site cells of ext_scale_sweep, with its configs.
void dist_scale_cells(std::vector<Cell>& cells, std::uint64_t seed,
                      Batch runs) {
  auto label = [](DistScheme scheme, const char* rest) {
    return std::string(rtdb::core::to_string(scheme)) + rest;
  };
  for (const DistScheme scheme :
       {DistScheme::kGlobalCeiling, DistScheme::kPartitionedCeiling,
        DistScheme::kLocalCeiling}) {
    add_group(cells, seed, label(scheme, "/uniform/rw0.25"),
              rtdb::bench::scale_config(scheme, 32, 0.0, 0), runs);
    add_group(cells, seed, label(scheme, "/zipf0.9/rw0.25"),
              rtdb::bench::scale_config(scheme, 32, 0.9, 0), runs);
  }
  for (const DistScheme scheme :
       {DistScheme::kGlobalCeiling, DistScheme::kPartitionedCeiling}) {
    SystemConfig cfg = rtdb::bench::scale_config(scheme, 32, 0.9, 0);
    cfg.workload.read_only_fraction = 0.75;
    add_group(cells, seed, label(scheme, "/zipf0.9/rw0.75"), cfg, runs);
  }
  for (const DistScheme scheme :
       {DistScheme::kGlobalCeiling, DistScheme::kPartitionedCeiling}) {
    SystemConfig cfg = rtdb::bench::scale_config(scheme, 32, 0.9, 0);
    cfg.commit_vote_timeout = rtdb::sim::Duration::units(40);
    cfg.faults.drop_rate = 0.01;
    cfg.faults.crashes.push_back(rtdb::net::FaultSpec::Crash{
        1, rtdb::sim::Duration::units(150), rtdb::sim::Duration::units(200)});
    add_group(cells, seed, label(scheme, "/zipf0.9/chaos"), cfg, runs);
  }
}

// Fig-2 update transactions of size 8 on real threads, offered at a fixed
// 500 transactions per second (one arrival per 100 units of 20 us): well
// below what the workers serve, so the backlog never grows.
void rt_threads_cells(std::vector<Cell>& cells, std::uint64_t seed,
                      Batch runs) {
  for (const Protocol protocol : kFigProtocols) {
    SystemConfig cfg = rtdb::bench::fig23_config(protocol, 8, 0);
    cfg.workload.mean_interarrival = rtdb::sim::Duration::units(100);
    cfg.backend = rtdb::core::BackendKind::kThreads;
    cfg.rt_workers = rt_workers();
    cfg.rt_unit_nanos = 20'000;
    // The lock table's own audit: a violation fails the run.
    cfg.conformance_check = true;
    add_group(cells, seed,
              std::string(rtdb::bench::curve_label(protocol)) + "/size8",
              cfg, runs);
  }
}

std::uint64_t ticks(rtdb::sim::Duration d) {
  return static_cast<std::uint64_t>(std::max<std::int64_t>(0, d.as_ticks()));
}

// Records -> processed/committed/met/objects/attempts and response samples.
void tally_records(const std::vector<rtdb::stats::TxnRecord>& records,
                   double us_per_tick, CellRun& run) {
  Counts& c = run.counts;
  run.us_per_tick = us_per_tick;
  for (const rtdb::stats::TxnRecord& r : records) {
    if (r.shed) ++c.shed;
    if (!r.processed) continue;
    ++c.processed;
    c.attempts += 1 + r.aborts;
    if (r.first_start >= r.arrival) {  // it started before its deadline
      run.start_lag_us.push_back(
          static_cast<double>(ticks(r.first_start - r.arrival)) * us_per_tick);
    }
    if (!r.committed) continue;
    ++c.committed;
    c.objects += r.size;
    if (!r.missed_deadline) ++c.met;
    run.response_us.push_back(static_cast<double>(ticks(r.response())) *
                              us_per_tick);
  }
}

CellRun run_threads_cell(const Cell& cell, int cell_index, Tracer& tracer) {
  rtdb::rt::RtRunnerConfig runner;
  runner.workers = cell.config.rt_workers;
  runner.unit_nanos = cell.config.rt_unit_nanos;
  rtdb::rt::RtRunResult rt;
  {
    auto span = tracer.scope("rt.run_threaded", cell_index);
    rt = rtdb::rt::run_threaded(cell.config, runner);
  }
  CellRun run;
  // One tick is unit_nanos / kTicksPerUnit real nanoseconds.
  tally_records(rt.records,
                static_cast<double>(rt.unit_nanos) / rtdb::sim::kTicksPerUnit /
                    1e3,
                run);
  Counts& c = run.counts;
  c.elapsed_ticks = ticks(rt.elapsed);
  c.restarts = rt.restarts;
  c.deadline_kills = rt.deadline_kills;
  c.wounds = rt.locks.wounds;
  c.conformance_violations = rt.conformance_violations;
  c.body_exceptions = rt.body_exceptions;
  run.result.metrics = rtdb::stats::Metrics::compute(rt.records, rt.elapsed);
  run.result.restarts = rt.restarts;
  run.result.deadline_kills = rt.deadline_kills;
  run.result.elapsed = rt.elapsed;
  return run;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kSingleSite, Workload::kDistScale,
                           Workload::kRtThreads}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kSingleSite:
      return "single_site";
    case Workload::kDistScale:
      return "dist_scale";
    case Workload::kRtThreads:
      return "rt_threads";
  }
  return "?";
}

std::uint32_t rt_workers() {
  const unsigned cores = std::thread::hardware_concurrency();
  return cores > 1 ? cores - 1 : 1;
}

std::vector<Cell> make_cells(Workload workload, std::uint64_t seed,
                             Scale scale) {
  std::vector<Cell> cells;
  const Batch runs = batch(workload, scale);
  switch (workload) {
    case Workload::kSingleSite:
      single_site_cells(cells, seed, runs);
      break;
    case Workload::kDistScale:
      dist_scale_cells(cells, seed, runs);
      break;
    case Workload::kRtThreads:
      rt_threads_cells(cells, seed, runs);
      break;
  }
  return cells;
}

Counts& Counts::operator+=(const Counts& o) {
  processed += o.processed;
  committed += o.committed;
  met += o.met;
  shed += o.shed;
  attempts += o.attempts;
  objects += o.objects;
  elapsed_ticks += o.elapsed_ticks;
  cpu_busy_ticks += o.cpu_busy_ticks;
  cpu_capacity_ticks += o.cpu_capacity_ticks;
  events += o.events;
  grants += o.grants;
  blocks += o.blocks;
  dynamic_deadlocks += o.dynamic_deadlocks;
  restarts += o.restarts;
  deadline_kills += o.deadline_kills;
  commit_rounds += o.commit_rounds;
  messages += o.messages;
  batched += o.batched;
  flushes += o.flushes;
  retransmits += o.retransmits;
  manager_requests += o.manager_requests;
  manager_denials += o.manager_denials;
  replica_updates += o.replica_updates;
  failovers += o.failovers;
  shard_migrations += o.shard_migrations;
  db_accesses += o.db_accesses;
  wounds += o.wounds;
  invariant_violations += o.invariant_violations;
  conformance_violations += o.conformance_violations;
  body_exceptions += o.body_exceptions;
  return *this;
}

CellRun run_cell(const Cell& cell, int cell_index, Tracer& tracer) {
  if (cell.config.backend == rtdb::core::BackendKind::kThreads) {
    return run_threads_cell(cell, cell_index, tracer);
  }
  std::unique_ptr<rtdb::core::System> system;
  {
    auto span = tracer.scope("core.System", cell_index);
    system = std::make_unique<rtdb::core::System>(cell.config);
  }
  {
    auto span = tracer.scope("sim.run_to_completion", cell_index);
    system->run_to_completion();
  }
  CellRun run;
  // One simulated tick is one microsecond (1 unit = 1 ms).
  tally_records(system->monitor().records(), 1.0, run);
  Counts& c = run.counts;
  const rtdb::sim::Duration elapsed =
      system->kernel().now() - rtdb::sim::TimePoint::origin();
  c.elapsed_ticks = ticks(elapsed);
  c.events = system->kernel().events_executed();
  for (rtdb::net::SiteId id = 0; id < system->site_count(); ++id) {
    const rtdb::core::System::Site& site = system->site(id);
    if (site.cpu != nullptr) {
      c.cpu_busy_ticks += ticks(site.cpu->busy_time());
      c.cpu_capacity_ticks +=
          c.elapsed_ticks * static_cast<std::uint64_t>(site.cpu->cores());
    }
    if (site.cc != nullptr) {
      c.grants += site.cc->grants();
      c.blocks += site.cc->blocks();
    }
    if (site.rm != nullptr) c.db_accesses += site.rm->reads() + site.rm->writes();
    if (site.replication != nullptr) {
      c.replica_updates += site.replication->updates_sent();
    }
    if (site.manager != nullptr) {
      c.manager_requests += site.manager->acquire_requests();
      c.manager_denials += site.manager->denials();
    }
    for (const auto& manager : site.shard_managers) {
      if (manager == nullptr) continue;
      c.manager_requests += manager->acquire_requests();
      c.manager_denials += manager->denials();
    }
  }
  c.dynamic_deadlocks = system->total_dynamic_deadlocks();
  c.restarts = system->total_restarts();
  c.deadline_kills = system->total_deadline_kills();
  c.commit_rounds = system->total_commit_rounds();
  if (const rtdb::net::Network* network = system->network()) {
    c.messages = network->messages_sent();
  }
  c.batched = system->total_batched_messages();
  c.flushes = system->total_batch_flushes();
  c.retransmits = system->total_retransmissions();
  c.failovers = system->total_failovers();
  c.shard_migrations = system->total_shard_migrations();
  if (cell.config.faults.active()) {
    c.invariant_violations = system->invariant_violations();
  }
  run.result.metrics = system->metrics();
  run.result.restarts = c.restarts;
  run.result.deadline_kills = c.deadline_kills;
  run.result.dynamic_deadlocks = c.dynamic_deadlocks;
  run.result.elapsed = elapsed;
  run.result.commit_rounds = c.commit_rounds;
  run.result.retransmissions = c.retransmits;
  run.result.failovers = c.failovers;
  run.result.batched_messages = c.batched;
  run.result.batch_flushes = c.flushes;
  run.result.shard_migrations = c.shard_migrations;
  run.result.invariant_violations = c.invariant_violations;
  return run;
}

void append_signature(Signature& out, const std::string& prefix,
                      const std::vector<const CellRun*>& runs) {
  Counts c;
  std::vector<double> response_ticks;
  for (const CellRun* run : runs) {
    c += run->counts;
    for (const double us : run->response_us) {
      response_ticks.push_back(us / run->us_per_tick);
    }
  }
  auto put = [&](const char* key, double value) {
    out.emplace_back(prefix + key, value);
  };
  put("processed", c.processed);
  put("committed", c.committed);
  put("met", c.met);
  put("shed", c.shed);
  put("attempts", c.attempts);
  put("objects", c.objects);
  put("elapsed_ticks", c.elapsed_ticks);
  put("resp_p50_ticks", percentile(response_ticks, 0.50));
  put("resp_p99_ticks", percentile(response_ticks, 0.99));
  put("cpu_busy_ticks", c.cpu_busy_ticks);
  put("events", c.events);
  put("grants", c.grants);
  put("blocks", c.blocks);
  put("dynamic_deadlocks", c.dynamic_deadlocks);
  put("restarts", c.restarts);
  put("deadline_kills", c.deadline_kills);
  put("commit_rounds", c.commit_rounds);
  put("messages", c.messages);
  put("batched", c.batched);
  put("flushes", c.flushes);
  put("retransmits", c.retransmits);
  put("manager_requests", c.manager_requests);
  put("manager_denials", c.manager_denials);
  put("replica_updates", c.replica_updates);
  put("failovers", c.failovers);
  put("shard_migrations", c.shard_migrations);
  put("db_accesses", c.db_accesses);
}

std::string failure_of(const CellRun& run) {
  const Counts& c = run.counts;
  if (c.invariant_violations > 0) {
    return std::to_string(c.invariant_violations) + " invariant violation(s)";
  }
  if (c.conformance_violations > 0) {
    return std::to_string(c.conformance_violations) +
           " conformance violation(s)";
  }
  if (c.body_exceptions > 0) {
    return std::to_string(c.body_exceptions) + " body exception(s)";
  }
  if (c.processed == 0) return "no transaction processed";
  return {};
}

}  // namespace perfbench
