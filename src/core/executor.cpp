#include "core/executor.hpp"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <map>
#include <vector>

#include "dist/global_ceiling.hpp"

namespace rtdb::core {

Executor::Executor(Services services, Costs costs)
    : services_(services), costs_(costs) {
  assert(services_.kernel != nullptr && services_.cpu != nullptr &&
         services_.rm != nullptr && services_.cc != nullptr);
  assert(services_.coordinator == nullptr || services_.server != nullptr);
}

sim::Priority Executor::sched_priority(const cc::CcTxn& ctx) const {
  // Without priority scheduling every transaction competes equally; the
  // schedulers then fall back to admission order (FCFS).
  return costs_.use_priority_scheduling ? ctx.effective_priority()
                                        : sim::Priority{0, 0};
}

sim::Task<std::optional<cc::AbortReason>> Executor::run(
    txn::AttemptContext& attempt, const txn::TransactionSpec& spec) {
  cc::CcTxn& ctx = attempt.ctx;
  db::ResourceManager& rm = *services_.rm;
  const std::uint32_t granularity = costs_.lock_granularity;
  // Locks (and the ceiling protocol's declared sets) live at granule
  // level; the physical accesses below stay per-object.
  if (granularity > 1) ctx.access = spec.access.coarsened(granularity);
  services_.cc->on_begin(ctx);
  attempt.began = true;
  const auto ops = spec.access.operations();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const cc::Operation& op = ops[i];
    const db::ObjectId granule = op.object / granularity;
    // Acquire each granule once, at its first object, in the mode the
    // (coarsened) declared set prescribes: write if any object inside it
    // is written. A declared set names each object once, so at object
    // granularity every operation is its granule's first.
    const bool first_of_granule =
        granularity == 1 ||
        std::none_of(ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(i),
                     [&](const cc::Operation& earlier) {
                       return earlier.object / granularity == granule;
                     });
    if (first_of_granule) {
      const cc::LockMode granule_mode = ctx.access.writes(granule)
                                            ? cc::LockMode::kWrite
                                            : cc::LockMode::kRead;
      if (auto aborted =
              co_await services_.cc->acquire(ctx, granule, granule_mode)) {
        co_return aborted;
      }
      if (services_.history != nullptr) {
        services_.history->record(spec.id, granule, granule_mode);
      }
    }
    if (rm.schema().has_copy(rm.site(), op.object)) {
      co_await rm.read(op.object, sched_priority(ctx));
    } else {
      // Partitioned placement, remote primary copy: one round trip.
      assert(services_.rpc != nullptr);
      auto response = co_await services_.rpc->call(
          rm.schema().primary_site(op.object), dist::DataReadReq{op.object});
      assert(response.has_value());
      (void)response;
    }
    co_await services_.cpu->execute(costs_.cpu_per_object,
                                    sched_priority(ctx), &attempt.cpu_job);
    attempt.cpu_job = {};
  }
  if (spec.access.write_count() == 0) co_return std::nullopt;
  const std::vector<db::ObjectId> writes = spec.access.write_set();
  if (services_.coordinator != nullptr) {
    if (!co_await commit_distributed(spec, ctx, writes)) {
      co_return cc::AbortReason::kSystem;
    }
    co_return std::nullopt;
  }
  // "Every transaction must be committed before updating remote secondary
  // copies": install locally first, then ship asynchronously.
  const auto versions =
      co_await rm.commit_writes(spec.id, writes, sched_priority(ctx));
  if (services_.replication != nullptr) {
    services_.replication->propagate(writes, versions);
  }
  co_return std::nullopt;
}

sim::Task<bool> Executor::commit_distributed(
    const txn::TransactionSpec& spec, const cc::CcTxn& ctx,
    std::span<const db::ObjectId> writes) {
  db::ResourceManager& rm = *services_.rm;
  const db::Database& schema = rm.schema();
  const net::SiteId home = rm.site();
  std::vector<net::SiteId> participants;
  if (schema.placement() == db::Placement::kFullyReplicated) {
    // Synchronous replicated commit: compute the new versions under the
    // global locks and install them at every site before releasing, so all
    // copies stay identical ("every data object maintains most up-to-date
    // value").
    const std::vector<db::ObjectId> objects(writes.begin(), writes.end());
    std::vector<db::Version> versions;
    versions.reserve(writes.size());
    for (const db::ObjectId object : writes) {
      versions.push_back(db::Version{rm.current(object).sequence + 1, spec.id,
                                     services_.kernel->now()});
    }
    for (net::SiteId site = 0; site < schema.site_count(); ++site) {
      if (site == home) continue;
      services_.server->send(site,
                             dist::WriteSetMsg{spec.id.value, objects, versions});
      participants.push_back(site);
    }
    if (!co_await services_.coordinator->commit(spec.id, participants,
                                                costs_.vote_timeout)) {
      co_return false;
    }
    for (std::size_t i = 0; i < writes.size(); ++i) {
      rm.apply_update(writes[i], versions[i]);
    }
    co_return true;
  }
  // Partitioned placement: 2PC across the owner sites of the write set,
  // each computing its versions itself.
  std::vector<db::ObjectId> local_writes;
  std::map<net::SiteId, std::vector<db::ObjectId>> remote_writes;
  for (const db::ObjectId object : writes) {
    const net::SiteId owner = schema.primary_site(object);
    if (owner == home) {
      local_writes.push_back(object);
    } else {
      remote_writes[owner].push_back(object);
    }
  }
  for (auto& [owner, objects] : remote_writes) {
    services_.server->send(owner, dist::WriteSetMsg{spec.id.value, objects, {}});
    participants.push_back(owner);
  }
  if (!co_await services_.coordinator->commit(spec.id, participants,
                                              costs_.vote_timeout)) {
    co_return false;
  }
  if (!local_writes.empty()) {
    co_await rm.commit_writes(spec.id, local_writes, sched_priority(ctx));
  }
  co_return true;
}

void Executor::release(txn::AttemptContext& attempt,
                       const txn::TransactionSpec& spec, bool committed) {
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

}  // namespace rtdb::core
