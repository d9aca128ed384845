#include "probes.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <thread>

#include "analysis/bounds.hpp"
#include "cc/lock_table.hpp"
#include "cc/pcp.hpp"
#include "core/system.hpp"
#include "exp/artifacts.hpp"
#include "net/message_server.hpp"
#include "rt/lock_table.hpp"
#include "rt/pqlock.hpp"
#include "rt/thread_backend.hpp"
#include "sched/cpu.hpp"
#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace sim = rtdb::sim;
namespace cc = rtdb::cc;
using rtdb::core::SystemConfig;
using rtdb::txn::TransactionSpec;

namespace {

// The simulator-side view of a cell: thread cells run their config on the
// simulator where a probe needs a kernel or a System.
SystemConfig sim_config(const Cell& cell) {
  SystemConfig cfg = cell.config;
  cfg.backend = rtdb::core::BackendKind::kSim;
  cfg.conformance_check = false;
  return cfg;
}

// Runs the workload generator of `system` on a throwaway kernel, over the
// System's own schema and with the home-site assignment its constructor
// chose, so the transactions are those the System itself would run.
void generate(const rtdb::core::System& system, std::uint64_t count,
              const rtdb::workload::TransactionGenerator::SubmitFn& sink) {
  rtdb::workload::WorkloadConfig workload = system.config().workload;
  workload.transaction_count = count;
  sim::Kernel kernel;
  rtdb::workload::TransactionGenerator generator{
      kernel, system.schema(), workload,
      sim::RandomStream{system.config().seed}, sink};
  generator.start();
  kernel.run();
}

const SystemConfig& first_config(const ProbeInputs& in) {
  return in.cells.front().config;
}

// ---- sim ----

std::uint64_t probe_event_queue(const ProbeInputs& in, Tracer& tracer,
                                const char* metric, int& span) {
  // Each transaction contributes its arrival and its deadline, scheduled
  // in generation order and drained in batches of 256 events.
  sim::EventQueue queue;
  std::uint64_t events = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  std::int64_t base = 0;
  for (std::size_t i = 0; i < in.specs.size(); i += 128) {
    const std::size_t end = std::min(in.specs.size(), i + 128);
    for (std::size_t j = i; j < end; ++j) {
      const TransactionSpec& spec = in.specs[j];
      queue.schedule(sim::TimePoint::at_ticks(base + spec.arrival.as_ticks()),
                     [] {});
      queue.schedule(sim::TimePoint::at_ticks(base + spec.deadline.as_ticks()),
                     [] {});
    }
    std::int64_t last = base;
    while (auto event = queue.pop()) {
      last = event->time.as_ticks();
      ++events;
    }
    base = last;  // keep time monotone across batches
  }
  return events;
}

sim::Task<void> delay_loop(sim::Kernel& kernel, sim::Duration step,
                           std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) co_await kernel.delay(step);
}

std::uint64_t probe_resume(const ProbeInputs& in, Tracer& tracer,
                           const char* metric, int& span) {
  // One process per transaction, suspending once per object for the
  // per-object CPU cost: the coroutine delay/resume path of every run.
  const sim::Duration step = first_config(in).cpu_per_object;
  std::uint64_t resumes = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (std::size_t i = 0; i < in.specs.size(); i += 64) {
    sim::Kernel kernel;
    const std::size_t end = std::min(in.specs.size(), i + 64);
    for (std::size_t j = i; j < end; ++j) {
      const std::uint32_t size = in.specs[j].size();
      kernel.spawn("probe", delay_loop(kernel, step, size));
      resumes += size;
    }
    kernel.run();
  }
  return resumes;
}

// ---- sched ----

sim::Task<void> cpu_job(sim::Kernel& kernel, rtdb::sched::PreemptiveCpu& cpu,
                        sim::Duration arrival, sim::Duration work,
                        sim::Priority priority) {
  co_await kernel.delay(arrival);
  co_await cpu.execute(work, priority);
}

std::uint64_t probe_preempt(const ProbeInputs& in, Tracer& tracer,
                            const char* metric, int& span) {
  // Batches of 32 transactions arrive one unit apart, weakest priority
  // first, so every arrival preempts the running job; each asks for its
  // size times the per-object CPU cost.
  const sim::Duration per_object = first_config(in).cpu_per_object;
  std::vector<TransactionSpec> order(in.specs.begin(), in.specs.end());
  for (std::size_t i = 0; i < order.size(); i += 32) {
    const auto end = order.begin() +
                     static_cast<std::ptrdiff_t>(std::min(order.size(), i + 32));
    std::sort(order.begin() + static_cast<std::ptrdiff_t>(i), end,
              [](const TransactionSpec& a, const TransactionSpec& b) {
                return b.priority.higher_than(a.priority);
              });
  }
  std::uint64_t jobs = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (std::size_t i = 0; i < order.size(); i += 32) {
    sim::Kernel kernel;
    rtdb::sched::PreemptiveCpu cpu{kernel};
    const std::size_t end = std::min(order.size(), i + 32);
    for (std::size_t j = i; j < end; ++j) {
      const TransactionSpec& spec = order[j];
      kernel.spawn("job", cpu_job(kernel, cpu,
                                  sim::Duration::units(
                                      static_cast<std::int64_t>(j - i)),
                                  per_object * spec.size(), spec.priority));
      ++jobs;
    }
    kernel.run();
  }
  return jobs;
}

// ---- cc ----

std::uint64_t probe_lock_table(const ProbeInputs& in, Tracer& tracer,
                               const char* metric, int& span) {
  // Windows of eight concurrent transactions request every object of
  // their access sets (conflicting requests are refused, not queued), then
  // release everything.
  cc::LockTable table{cc::LockTable::QueuePolicy::kPriority};
  std::vector<cc::CcTxn> window(8);
  std::uint64_t requests = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (std::size_t i = 0; i < in.specs.size(); i += window.size()) {
    const std::size_t n = std::min(window.size(), in.specs.size() - i);
    for (std::size_t k = 0; k < n; ++k) {
      const TransactionSpec& spec = in.specs[i + k];
      window[k].id = spec.id;
      window[k].base_priority = spec.priority;
      for (const cc::Operation& op : spec.access.operations()) {
        (void)table.try_grant(window[k], op.object, op.mode);
        ++requests;
      }
    }
    for (std::size_t k = 0; k < n; ++k) table.release_all(window[k]);
  }
  return requests;
}

sim::Task<void> pcp_sequence(cc::PriorityCeiling& pcp,
                             std::vector<cc::CcTxn>& txns) {
  for (cc::CcTxn& txn : txns) {
    for (const cc::Operation& op : txn.access.operations()) {
      co_await pcp.acquire(txn, op.object, op.mode);
    }
    pcp.release_all(txn);
    pcp.on_end(txn);
  }
}

std::uint64_t probe_pcp(const ProbeInputs& in, Tracer& tracer,
                        const char* metric, int& span) {
  // Windows of eight transactions declare their sets (raising the
  // ceilings), then run one after another: acquire every object, release,
  // leave. Each acquire passes the ceiling test against the others'
  // declarations.
  const SystemConfig& cfg = first_config(in);
  std::uint64_t acquires = 0;
  std::vector<std::vector<cc::CcTxn>> windows;
  for (std::size_t i = 0; i < in.specs.size(); i += 8) {
    std::vector<cc::CcTxn>& window = windows.emplace_back();
    for (std::size_t j = i; j < std::min(in.specs.size(), i + 8); ++j) {
      cc::CcTxn& txn = window.emplace_back();
      txn.id = in.specs[j].id;
      txn.base_priority = in.specs[j].priority;
      txn.access = in.specs[j].access;
      acquires += in.specs[j].access.size();
    }
  }
  sim::Kernel kernel;
  cc::PriorityCeiling pcp{kernel, cfg.db_objects};
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (std::vector<cc::CcTxn>& window : windows) {
    for (cc::CcTxn& txn : window) pcp.on_begin(txn);
    kernel.spawn("pcp", pcp_sequence(pcp, window));
    kernel.run();
  }
  return acquires;
}

// ---- net ----

std::uint64_t probe_network(const ProbeInputs& in, Tracer& tracer,
                            const char* metric, int& span) {
  // 32 sites, one unit of delay: each transaction's home site sends one
  // small control message per object to the object's owner site (objects
  // striped over the sites), delivered by the destination MessageServer.
  constexpr std::uint32_t kSites = 32;
  sim::Kernel kernel;
  rtdb::net::Network network{kernel, kSites, sim::Duration::units(1)};
  std::vector<std::unique_ptr<rtdb::net::MessageServer>> servers;
  std::uint64_t received = 0;
  for (rtdb::net::SiteId id = 0; id < kSites; ++id) {
    servers.push_back(
        std::make_unique<rtdb::net::MessageServer>(kernel, network, id));
    servers.back()->on<rtdb::dist::EndTxnMsg>(
        [&received](rtdb::net::SiteId, rtdb::dist::EndTxnMsg) { ++received; });
    servers.back()->start();
  }
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (std::size_t i = 0; i < in.specs.size(); i += 64) {
    const std::size_t end = std::min(in.specs.size(), i + 64);
    for (std::size_t j = i; j < end; ++j) {
      const TransactionSpec& spec = in.specs[j];
      const rtdb::net::SiteId from = spec.home_site % kSites;
      for (const cc::Operation& op : spec.access.operations()) {
        rtdb::net::SiteId to = op.object % kSites;
        if (to == from) to = (to + 1) % kSites;  // local sends skip the net
        servers[from]->send(to, rtdb::dist::EndTxnMsg{spec.id.value, 1, 0});
      }
    }
    kernel.run();
  }
  return received;
}

// ---- rt ----

std::uint64_t probe_rt_lock_table(const ProbeInputs& in, Tracer& tracer,
                                  const char* metric, int& span) {
  // The ceiling protocol's thread-native lock table on a one-worker
  // backend, driven from this thread: begin, acquire every object,
  // release, end — one transaction at a time, so nothing ever waits.
  const SystemConfig& cfg = first_config(in);
  rtdb::rt::ThreadBackend backend{{1, cfg.rt_unit_nanos}};
  rtdb::rt::RtLockTable::Options options;
  options.protocol = rtdb::core::Protocol::kPriorityCeiling;
  options.object_count = cfg.db_objects;
  rtdb::rt::RtLockTable table{options, backend};
  std::deque<rtdb::rt::RtTxn> txns(in.specs.size());
  std::uint64_t acquires = 0;
  for (std::size_t i = 0; i < in.specs.size(); ++i) {
    txns[i].id = in.specs[i].id;
    txns[i].base_priority = in.specs[i].priority;
    txns[i].access = in.specs[i].access;
  }
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (rtdb::rt::RtTxn& txn : txns) {
    table.on_begin(txn);
    for (const cc::Operation& op : txn.access.operations()) {
      table.acquire(txn, op.object, op.mode);
      ++acquires;
    }
    table.release_all(txn);
    table.on_end(txn);
  }
  return acquires;
}

// Lock/unlock pairs on one PqSpinLock from `threads` threads at the
// transactions' priorities; items are acquisitions across all threads.
std::uint64_t latch_rounds(const ProbeInputs& in, Tracer& tracer,
                           const char* metric, int& span,
                           std::uint32_t threads) {
  rtdb::rt::PqSpinLock latch;
  std::uint64_t shared_counter = 0;  // guarded by latch
  std::atomic<bool> go{false};
  const std::size_t per_thread = in.specs.size() * 8;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  try {
    for (std::uint32_t t = 0; t < threads; ++t) {
      workers.emplace_back([&in, &latch, &shared_counter, &go, per_thread, t] {
        while (!go.load(std::memory_order_acquire)) rtdb::rt::cpu_relax();
        for (std::size_t i = 0; i < per_thread; ++i) {
          const TransactionSpec& spec = in.specs[(i + t) % in.specs.size()];
          rtdb::rt::PqSpinLock::Guard guard{latch, spec.priority};
          ++shared_counter;
        }
      });
    }
  } catch (...) {
    // Let the threads already started finish before unwinding past them.
    go.store(true, std::memory_order_release);
    for (std::thread& worker : workers) worker.join();
    throw;
  }
  {
    auto scope = tracer.scope(metric);
    span = scope.index();
    go.store(true, std::memory_order_release);
    for (std::thread& worker : workers) worker.join();
  }
  return shared_counter;
}

std::uint64_t probe_latch(const ProbeInputs& in, Tracer& tracer,
                          const char* metric, int& span) {
  return latch_rounds(in, tracer, metric, span, 1);
}

std::uint64_t probe_latch_contended(const ProbeInputs& in, Tracer& tracer,
                                    const char* metric, int& span) {
  return latch_rounds(in, tracer, metric, span, rt_workers());
}

// ---- set-up layers: core, workload, analysis, exp ----

std::uint64_t probe_construct(const ProbeInputs& in, Tracer& tracer,
                              const char* metric, int& span) {
  std::vector<SystemConfig> configs;
  for (const Cell& cell : in.cells) configs.push_back(sim_config(cell));
  std::vector<std::unique_ptr<rtdb::core::System>> systems;
  {
    auto scope = tracer.scope(metric);
    span = scope.index();
    for (const SystemConfig& cfg : configs) {
      systems.push_back(std::make_unique<rtdb::core::System>(cfg));
    }
  }
  return systems.size();
}

std::uint64_t probe_generator(const ProbeInputs& in, Tracer& tracer,
                              const char* metric, int& span) {
  // The workload generator of every cell, producing as many transactions
  // as the probes were given per cell.
  const std::uint64_t per_cell =
      std::max<std::uint64_t>(1, in.specs.size() / in.cells.size());
  std::vector<std::unique_ptr<rtdb::core::System>> systems;
  for (const Cell& cell : in.cells) {
    systems.push_back(std::make_unique<rtdb::core::System>(sim_config(cell)));
  }
  std::uint64_t specs = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (const auto& system : systems) {
    generate(*system, per_cell, [&specs](TransactionSpec) { ++specs; });
  }
  return specs;
}

std::uint64_t probe_analysis(const ProbeInputs& in, Tracer& tracer,
                             const char* metric, int& span) {
  std::uint64_t configs = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (int rep = 0; rep < 16; ++rep) {
    for (const Cell& cell : in.cells) {
      (void)rtdb::analysis::analyze(cell.config);
      ++configs;
    }
  }
  return configs;
}

std::uint64_t probe_artifact(const ProbeInputs& in, Tracer& tracer,
                             const char* metric, int& span) {
  // The sweep artifacts (JSON document and long-format CSV) for the
  // workload's cells, three runs per cell.
  rtdb::exp::SweepResult result;
  result.name = "perfbench";
  result.title = "perfbench cells";
  result.runs_per_cell = 3;
  for (std::size_t i = 0; i < in.cells.size(); ++i) {
    rtdb::exp::CellResult cell;
    cell.axes = {{"cell", in.cells[i].group}};
    cell.runs.assign(3, in.results.at(i));
    result.cells.push_back(std::move(cell));
  }
  std::uint64_t artifacts = 0;
  auto scope = tracer.scope(metric);
  span = scope.index();
  for (int rep = 0; rep < 4; ++rep) {
    if (!rtdb::exp::artifact_json(result).dump(2).empty()) ++artifacts;
    if (!rtdb::exp::artifact_csv(result).empty()) ++artifacts;
  }
  return artifacts;
}

}  // namespace

ProbeInputs make_probe_inputs(const std::vector<Cell>& cells,
                              std::size_t per_cell) {
  ProbeInputs in;
  in.cells = cells;
  for (const Cell& cell : cells) {
    const rtdb::core::System system{sim_config(cell)};
    generate(system, per_cell, [&in](TransactionSpec spec) {
      in.specs.push_back(std::move(spec));
    });
  }
  return in;
}

const std::vector<Probe>& probes() {
  static const std::vector<Probe> kProbes = {
      {"sim.event_ns", "ns/event", 1.0, probe_event_queue},
      {"sim.resume_ns", "ns/resume", 1.0, probe_resume},
      {"sched.preempt_ns", "ns/job", 1.0, probe_preempt},
      {"cc.lock_ns", "ns/lock_request", 1.0, probe_lock_table},
      {"cc.pcp_ns", "ns/acquire", 1.0, probe_pcp},
      {"net.msg_ns", "ns/msg", 1.0, probe_network},
      {"rt.acquire_ns", "ns/acquire", 1.0, probe_rt_lock_table},
      {"rt.latch_ns", "ns/lock", 1.0, probe_latch},
      {"rt.latch_contended_ns", "ns/lock", 1.0, probe_latch_contended},
      {"core.construct_ms", "ms/system", 1e6, probe_construct},
      {"workload.spec_ns", "ns/spec", 1.0, probe_generator},
      {"analysis.analyze_us", "us/config", 1e3, probe_analysis},
      {"exp.artifact_ms", "ms/artifact", 1e6, probe_artifact},
  };
  return kProbes;
}

}  // namespace perfbench
