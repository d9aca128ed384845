#include "dist/local_ceiling.hpp"

#include <cassert>

namespace rtdb::dist {

ReplicatedExecutor::ReplicatedExecutor(Services services, Costs costs)
    : services_(services), costs_(costs) {
  assert(services_.kernel != nullptr && services_.cpu != nullptr &&
         services_.rm != nullptr && services_.cc != nullptr &&
         services_.replication != nullptr);
}

sim::Priority ReplicatedExecutor::sched_priority(const cc::CcTxn& ctx) const {
  return costs_.use_priority_scheduling ? ctx.effective_priority()
                                        : sim::Priority{0, 0};
}

sim::Task<std::optional<cc::AbortReason>> ReplicatedExecutor::run(
    txn::AttemptContext& attempt, const txn::TransactionSpec& spec) {
  cc::CcTxn& ctx = attempt.ctx;
  services_.cc->on_begin(ctx);
  attempt.began = true;
  for (const cc::Operation& op : spec.access.operations()) {
    // The local ceiling manager synchronizes both primary and replica
    // copies at this site; everything is a local access.
    assert(services_.rm->schema().has_copy(spec.home_site, op.object));
    assert(op.mode == cc::LockMode::kRead ||
           services_.rm->schema().is_primary(spec.home_site, op.object));
    if (auto aborted =
            co_await services_.cc->acquire(ctx, op.object, op.mode)) {
      co_return aborted;
    }
    if (services_.history != nullptr) {
      services_.history->record(spec.id, op.object, op.mode);
    }
    co_await services_.rm->read(op.object, sched_priority(ctx));
    co_await services_.cpu->execute(costs_.cpu_per_object,
                                    sched_priority(ctx), &attempt.cpu_job);
    attempt.cpu_job = {};
  }
  const auto writes = spec.access.write_set();
  if (!writes.empty()) {
    // "Every transaction must be committed before updating remote
    // secondary copies": install locally first, then ship asynchronously.
    auto versions = co_await services_.rm->commit_writes(spec.id, writes,
                                                         sched_priority(ctx));
    services_.replication->propagate(writes, versions);
  }
  co_return std::nullopt;
}

void ReplicatedExecutor::release(txn::AttemptContext& attempt,
                                 const txn::TransactionSpec& spec,
                                 bool committed) {
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

}  // namespace rtdb::dist
