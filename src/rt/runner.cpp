#include "rt/runner.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>

#include "db/database.hpp"
#include "rt/thread_backend.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "txn/transaction.hpp"
#include "workload/generator.hpp"

namespace rtdb::rt {
namespace {

// Replays the workload generator on a throwaway kernel to pre-compute the
// arrival schedule. The generator is a pure function of (schema, workload
// config, seed), so this produces exactly the transactions — ids, access
// sets, arrivals, deadlines, priorities — that core::System would submit
// for the same config.
std::vector<txn::TransactionSpec> generate_schedule(
    const core::SystemConfig& config) {
  sim::Kernel kernel;
  const db::Database schema{db::DatabaseConfig{
      config.db_objects, 1, db::Placement::kSingleSite}};
  workload::WorkloadConfig workload = config.workload;
  workload.assignment = workload::Assignment::kSingleSite;

  std::vector<txn::TransactionSpec> specs;
  workload::TransactionGenerator generator(
      kernel, schema, workload, sim::RandomStream{config.seed},
      [&specs](txn::TransactionSpec spec) { specs.push_back(std::move(spec)); });
  generator.start();
  kernel.run();

  std::stable_sort(specs.begin(), specs.end(),
                   [](const txn::TransactionSpec& a,
                      const txn::TransactionSpec& b) {
                     return a.arrival < b.arrival;
                   });
  return specs;
}

// One transaction's fixed spec plus its mutable thread-side state. Lives in
// a deque so addresses stay stable while bodies run.
struct Slot {
  txn::TransactionSpec spec;
  RtTxn txn;
  stats::TxnRecord record;
};

struct SharedCounters {
  std::atomic<std::uint64_t> restarts{0};
  std::atomic<std::uint64_t> deadline_kills{0};
};

void record_miss(Slot& slot, ThreadBackend& backend) {
  slot.record.processed = true;
  slot.record.missed_deadline = true;
  slot.record.finish = backend.now();
}

// One attempt's body, the thread-side mirror of txn::LocalExecutor::run:
// returns nullopt once the work is done, or why the attempt must abort.
// Deadline misses are detected at operation boundaries rather than by a
// watchdog process (a real thread cannot be killed asynchronously), so a
// doomed attempt runs until its next boundary before it is charged.
std::optional<cc::AbortReason> run_attempt(const txn::TransactionSpec& spec,
                                           RtTxn& txn, RtLockTable& table,
                                           ThreadBackend& backend,
                                           const core::SystemConfig& config) {
  const std::uint32_t granularity = std::max(1u, config.lock_granularity);
  auto boundary = [&]() -> std::optional<cc::AbortReason> {
    if (auto aborted = RtLockTable::checkpoint(txn)) return aborted;
    if (backend.now() >= spec.deadline) return cc::AbortReason::kDeadlineMiss;
    return std::nullopt;
  };
  std::vector<db::ObjectId> held;
  for (const cc::Operation& op : spec.access.operations()) {
    if (auto aborted = boundary()) return aborted;
    const db::ObjectId granule = op.object / granularity;
    if (std::find(held.begin(), held.end(), granule) == held.end()) {
      const cc::LockMode mode = txn.access.writes(granule)
                                    ? cc::LockMode::kWrite
                                    : cc::LockMode::kRead;
      if (auto aborted = table.acquire(txn, granule, mode)) return aborted;
      held.push_back(granule);
    }
    backend.advance(config.io_per_object);   // read the object
    backend.advance(config.cpu_per_object);  // compute on it
  }
  if (auto aborted = boundary()) return aborted;
  if (spec.access.write_count() > 0) {
    // Deferred write-back: with one disk per object the write I/Os
    // proceed in parallel, so commit costs a single io_per_object.
    backend.advance(config.io_per_object);
  }
  return std::nullopt;
}

// The per-transaction body: the thread-side mirror of the
// txn::TransactionManager restart loop.
void run_transaction(Slot& slot, RtLockTable& table, ThreadBackend& backend,
                     const core::SystemConfig& config,
                     SharedCounters& counters) {
  const txn::TransactionSpec& spec = slot.spec;
  stats::TxnRecord& record = slot.record;
  RtTxn& txn = slot.txn;

  for (std::uint32_t attempt = 1;; ++attempt) {
    if (backend.now() >= spec.deadline) {
      record_miss(slot, backend);
      counters.deadline_kills.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (attempt == 1) record.first_start = backend.now();

    table.on_begin(txn);
    std::optional<cc::AbortReason> aborted =
        run_attempt(spec, txn, table, backend, config);
    // The commit decision: release_all reports, under the latch, an
    // attempt another transaction's abort already ended.
    const std::optional<cc::AbortReason> ended = table.release_all(txn);
    if (!aborted) aborted = ended;
    table.on_end(txn);
    record.blocked += txn.blocked_total;
    record.ceiling_blocks += txn.ceiling_blocks;

    if (!aborted) {
      record.processed = true;
      record.committed = true;
      record.finish = backend.now();
      // The simulation's watchdog would have killed this attempt at the
      // deadline; on threads the commit raced the clock and won. Count it
      // as a miss so the metric means the same thing on both backends.
      record.missed_deadline = record.finish > spec.deadline;
      return;
    }
    if (*aborted == cc::AbortReason::kDeadlineMiss) {
      record_miss(slot, backend);
      counters.deadline_kills.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    ++record.aborts;
    counters.restarts.fetch_add(1, std::memory_order_relaxed);
    sim::Duration backoff = config.restart_backoff;
    if (*aborted == cc::AbortReason::kAgeBased) {
      // Wait-die restarts retry against the same older holders; back off
      // exponentially like txn::TransactionManager so they stop thrashing.
      backoff = backoff * (std::int64_t{1}
                           << std::min<std::uint32_t>(attempt, 6));
    }
    if (backend.now() + backoff >= spec.deadline) {
      record_miss(slot, backend);
      counters.deadline_kills.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    backend.advance(backoff);
  }
}

}  // namespace

RtRunResult run_threaded(const core::SystemConfig& config,
                         const RtRunnerConfig& runner_config) {
  if (config.scheme != core::DistScheme::kSingleSite) {
    throw std::invalid_argument(
        "rt::run_threaded supports only the single-site scheme");
  }
  if (!config.workload.periodic.empty()) {
    throw std::invalid_argument(
        "rt::run_threaded does not support periodic sources");
  }

  std::vector<txn::TransactionSpec> specs = generate_schedule(config);

  ThreadBackend backend{{runner_config.workers, runner_config.unit_nanos}};
  const std::uint32_t granularity = std::max(1u, config.lock_granularity);
  const std::uint32_t granules =
      (config.db_objects + granularity - 1) / granularity;
  RtLockTable table{{config.protocol, granules, config.victim_policy,
                     config.conformance_check || config.bounds_check,
                     runner_config.bound_gate},
                    backend};

  std::deque<Slot> slots;
  for (txn::TransactionSpec& spec : specs) {
    Slot& slot = slots.emplace_back();
    slot.spec = std::move(spec);
    slot.txn.id = slot.spec.id;
    slot.txn.base_priority = slot.spec.priority;
    slot.txn.deadline = slot.spec.deadline;
    slot.txn.access = granularity > 1 ? slot.spec.access.coarsened(granularity)
                                      : slot.spec.access;
    slot.record.id = slot.spec.id;
    slot.record.site = slot.spec.home_site;
    slot.record.read_only = slot.spec.read_only;
    slot.record.size = slot.spec.size();
    slot.record.arrival = slot.spec.arrival;
    slot.record.deadline = slot.spec.deadline;
  }

  SharedCounters counters;
  // Release transactions at their arrival instants. The dispatch loop runs
  // on the caller's thread so every pool worker stays available for
  // transaction bodies; the FIFO queue preserves arrival order.
  for (Slot& slot : slots) {
    const sim::Duration until_arrival = slot.spec.arrival - backend.now();
    if (until_arrival > sim::Duration::zero()) backend.advance(until_arrival);
    backend.spawn("txn-" + std::to_string(slot.spec.id.value),
                  [&slot, &table, &backend, &config, &counters] {
                    run_transaction(slot, table, backend, config, counters);
                  });
  }
  backend.run();

  RtRunResult result;
  result.elapsed = backend.now() - sim::TimePoint::origin();
  result.records.reserve(slots.size());
  for (const Slot& slot : slots) result.records.push_back(slot.record);
  result.locks = table.stats();
  result.restarts = counters.restarts.load(std::memory_order_relaxed);
  result.deadline_kills =
      counters.deadline_kills.load(std::memory_order_relaxed);
  result.workers = backend.workers();
  result.unit_nanos = backend.unit_nanos();
  result.body_exceptions = backend.body_exceptions();

  std::string why;
  const bool quiet = table.quiescent(&why);
  if (!quiet) result.quiescence_failure = why;
  if (result.locks.audit_violations > 0 && result.quiescence_failure.empty()) {
    result.quiescence_failure = table.first_audit_failure();
  }
  result.conformance_violations = result.locks.audit_violations +
                                  (quiet ? 0 : 1) + result.body_exceptions;
  return result;
}

}  // namespace rtdb::rt
