#include "txn/transaction.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>

namespace rtdb::txn {

LocalExecutor::LocalExecutor(Services services, Costs costs)
    : services_(services), costs_(costs) {
  assert(services_.kernel != nullptr && services_.cpu != nullptr &&
         services_.rm != nullptr && services_.cc != nullptr);
}

sim::Priority LocalExecutor::sched_priority(const cc::CcTxn& ctx) const {
  // Without priority scheduling every transaction competes equally; the
  // schedulers then fall back to admission order (FCFS).
  return costs_.use_priority_scheduling ? ctx.effective_priority()
                                        : sim::Priority{0, 0};
}

sim::Task<std::optional<cc::AbortReason>> LocalExecutor::run(
    AttemptContext& attempt, const TransactionSpec& spec) {
  cc::CcTxn& ctx = attempt.ctx;
  const std::uint32_t granularity = costs_.lock_granularity;
  // Locks (and the ceiling protocol's declared sets) live at granule
  // level; the physical accesses below stay per-object.
  if (granularity > 1) ctx.access = spec.access.coarsened(granularity);
  services_.cc->on_begin(ctx);
  attempt.began = true;
  // Granules acquired so far; at most one per declared operation, so the
  // attempt arena can size the list up front.
  auto held = attempt.scratch.make_array<db::ObjectId>(spec.access.size());
  std::size_t held_count = 0;
  for (const cc::Operation& op : spec.access.operations()) {
    const db::ObjectId granule = op.object / granularity;
    const auto held_end =
        held.begin() + static_cast<std::ptrdiff_t>(held_count);
    if (std::find(held.begin(), held_end, granule) == held_end) {
      // Acquire each granule once, in the mode the (coarsened) declared
      // set prescribes: write if any object inside it is written.
      const cc::LockMode granule_mode = ctx.access.writes(granule)
                                            ? cc::LockMode::kWrite
                                            : cc::LockMode::kRead;
      if (auto aborted =
              co_await services_.cc->acquire(ctx, granule, granule_mode)) {
        co_return aborted;
      }
      held[held_count++] = granule;
      if (services_.history != nullptr) {
        services_.history->record(spec.id, granule, granule_mode);
      }
    }
    co_await services_.rm->read(op.object, sched_priority(ctx));
    co_await services_.cpu->execute(costs_.cpu_per_object,
                                    sched_priority(ctx), &attempt.cpu_job);
    attempt.cpu_job = {};
  }
  if (spec.access.write_count() > 0) {
    // The write set in execution order, like AccessSet::write_set() but
    // built in the attempt arena.
    auto writes =
        attempt.scratch.make_array<db::ObjectId>(spec.access.write_count());
    std::size_t nw = 0;
    for (const cc::Operation& op : spec.access.operations()) {
      if (op.mode == cc::LockMode::kWrite) writes[nw++] = op.object;
    }
    co_await services_.rm->commit_writes(spec.id, writes,
                                         sched_priority(ctx));
  }
  co_return std::nullopt;
}

void LocalExecutor::release(AttemptContext& attempt,
                            const TransactionSpec& spec, bool committed) {
  if (!attempt.began) return;
  attempt.began = false;
  services_.cc->release_all(attempt.ctx);
  services_.cc->on_end(attempt.ctx);
  if (services_.history != nullptr) {
    if (committed) {
      services_.history->commit(spec.id);
    } else {
      services_.history->abort(spec.id);
    }
  }
}

}  // namespace rtdb::txn
