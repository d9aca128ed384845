#include "dist/global_ceiling.hpp"

#include <algorithm>
#include <cassert>

namespace rtdb::dist {

using net::SiteId;

// ---- GlobalCeilingManager ----

GlobalCeilingManager::GlobalCeilingManager(net::MessageServer& server,
                                           std::uint32_t object_count,
                                           bool active, bool reap_orphans)
    : server_(server),
      pcp_(server.kernel(), object_count),
      active_(active),
      reap_orphans_(reap_orphans) {
  pcp_.set_hooks(cc::ControllerHooks{
      [this](db::TxnId victim, cc::AbortReason reason) {
        abort_mirror(victim, reason);
      },
      // Inherited priorities are not propagated to remote CPUs (the
      // grant/wake ordering at the manager still honours them).
      [](const cc::CcTxn&) {}});
}

void GlobalCeilingManager::handle_register(SiteId from,
                                           RegisterTxnMsg message) {
  if (!active_) return;  // not the manager; the client will re-target
  if (message.attempt > 0) {
    // A finished attempt's retransmitted Register must not resurrect it.
    if (auto t = ended_.find(message.txn);
        t != ended_.end() && t->second >= message.attempt) {
      return;
    }
  }
  auto it = mirrors_.find(message.txn);
  if (it != mirrors_.end()) {
    Mirror& existing = *it->second;
    if (message.attempt > 0 && existing.attempt > 0) {
      // Attempt-stamped traffic: a duplicate or stale Register is ignored;
      // a newer attempt's Register means the old attempt ended but its
      // EndTxn is still in flight (or lost) — tear the old mirror down.
      if (existing.attempt >= message.attempt) return;
      remove_mirror(it);
    } else {
      // Legacy heuristic (unstamped senders): ignore duplicates for the
      // live attempt; an *aborted* mirror still present means the EndTxn
      // was lost and this is the restarted attempt re-registering.
      if (!existing.aborted) return;
      disarm_reap(existing);
      mirrors_.erase(it);
    }
  }
  auto mirror = std::make_unique<Mirror>();
  mirror->ctx.id = db::TxnId{message.txn};
  mirror->ctx.attempt = message.attempt;
  mirror->home = from;
  mirror->attempt = message.attempt;
  mirror->ctx.base_priority =
      sim::Priority{message.priority_key, message.priority_tie};
  mirror->ctx.access = cc::AccessSet::from_operations(message.operations);
  pcp_.on_begin(mirror->ctx);
  // Failover re-registration: adopt the locks the previous manager had
  // already granted this attempt.
  for (const cc::Operation& op : message.held) {
    pcp_.adopt(mirror->ctx, op.object, op.mode);
    ++orphans_reclaimed_;
  }
  Mirror& installed = *mirror;
  mirrors_.emplace(message.txn, std::move(mirror));
  arm_reap(message.txn, installed, message.deadline_ticks);
  ++registrations_;
}

void GlobalCeilingManager::arm_reap(std::uint64_t txn, Mirror& mirror,
                                    std::int64_t deadline_ticks) {
  if (!reap_orphans_ || deadline_ticks <= 0) return;
  // One unit past the deadline: strictly after the home watchdog's kill
  // event, so a reap can never race a live transaction. Firing before the
  // (in-flight, possibly lost) ReleaseAll/EndTxn is harmless — the reap
  // performs exactly their teardown, and the late messages then no-op.
  // A retransmitted or re-registered Register can arrive after the
  // deadline has already passed — the sender is dead, reap immediately.
  const sim::TimePoint when = std::max(
      sim::TimePoint::at_ticks(deadline_ticks) + sim::Duration::units(1),
      server_.kernel().now());
  mirror.reap_event = server_.kernel().schedule_at(
      when, [this, txn, attempt = mirror.attempt] { reap_orphan(txn, attempt); });
  mirror.reap_armed = true;
}

void GlobalCeilingManager::disarm_reap(Mirror& mirror) {
  if (!mirror.reap_armed) return;
  mirror.reap_armed = false;
  server_.kernel().cancel_event(mirror.reap_event);
}

void GlobalCeilingManager::reap_orphan(std::uint64_t txn,
                                       std::uint32_t attempt) {
  auto it = mirrors_.find(txn);
  if (it == mirrors_.end() || it->second->attempt != attempt) return;
  it->second->reap_armed = false;  // this very event fired
  // Tombstone the attempt so a late duplicate Register cannot resurrect
  // the mirror (no restarted attempt can outlive the deadline: the home
  // watchdog killed the transaction at it).
  if (attempt > 0) {
    auto [t, inserted] = ended_.try_emplace(txn, attempt);
    if (!inserted && t->second < attempt) t->second = attempt;
  }
  remove_mirror(it);
}

void GlobalCeilingManager::cancel_pending(Mirror& mirror) {
  // Cancel grants still waiting (e.g. the home site hit the deadline while
  // the request was queued here); each replies "denied" on unwind, which
  // the (dead) caller ignores.
  auto pending = mirror.pending;
  mirror.pending.clear();
  for (const sim::ProcessId pid : pending) {
    if (server_.kernel().alive(pid)) server_.kernel().kill(pid);
  }
}

void GlobalCeilingManager::remove_mirror(
    std::unordered_map<std::uint64_t, std::unique_ptr<Mirror>>::iterator it) {
  Mirror& mirror = *it->second;
  disarm_reap(mirror);
  cancel_pending(mirror);
  if (!mirror.aborted) {
    pcp_.release_all(mirror.ctx);
    pcp_.on_end(mirror.ctx);
  }
  mirrors_.erase(it);
}

void GlobalCeilingManager::handle_release(const ReleaseAllMsg& message) {
  if (!active_) return;
  auto it = mirrors_.find(message.txn);
  if (it == mirrors_.end()) return;
  Mirror& mirror = *it->second;
  // A stale attempt's (retransmitted) release must not strip the locks of
  // the attempt now registered.
  if (message.attempt > 0 && mirror.attempt > 0 &&
      mirror.attempt != message.attempt) {
    return;
  }
  cancel_pending(mirror);
  if (!mirror.aborted) pcp_.release_all(mirror.ctx);
}

void GlobalCeilingManager::handle_end(const EndTxnMsg& message) {
  if (!active_) return;
  if (message.attempt > 0) {
    auto [t, inserted] = ended_.try_emplace(message.txn, message.attempt);
    if (!inserted && t->second < message.attempt) t->second = message.attempt;
  }
  auto it = mirrors_.find(message.txn);
  if (it == mirrors_.end()) return;
  // Under message jitter the EndTxn can overtake the ReleaseAll (and under
  // drops the ReleaseAll may never arrive): cancel waiting grants and drop
  // held locks before deregistering, so no CcTxn pointer survives in the
  // lock table. release_all is idempotent, so the common ordered path is
  // unchanged. A stale attempt's EndTxn leaves the newer mirror alone.
  if (message.attempt > 0 && it->second->attempt > message.attempt) return;
  remove_mirror(it);
}

void GlobalCeilingManager::abort_site(net::SiteId site) {
  std::vector<std::uint64_t> victims;
  for (const auto& [txn, mirror] : mirrors_) {
    if (mirror->home == site) victims.push_back(txn);
  }
  // mirrors_ iteration order is unspecified; sort for deterministic replay.
  std::sort(victims.begin(), victims.end());
  for (const std::uint64_t txn : victims) {
    auto it = mirrors_.find(txn);
    disarm_reap(*it->second);
    finish_abort(*it->second);
    mirrors_.erase(it);
  }
}

void GlobalCeilingManager::deactivate() {
  if (!active_) return;
  active_ = false;
  std::vector<std::uint64_t> victims;
  victims.reserve(mirrors_.size());
  for (const auto& [txn, mirror] : mirrors_) {
    (void)mirror;
    victims.push_back(txn);
  }
  std::sort(victims.begin(), victims.end());
  for (const std::uint64_t txn : victims) {
    auto it = mirrors_.find(txn);
    disarm_reap(*it->second);
    finish_abort(*it->second);
    mirrors_.erase(it);
  }
}

void GlobalCeilingManager::on_crash() {
  // Same teardown as losing an election — every mirror is volatile state
  // (finish_abort's denials go to the network, which drops a down sender's
  // messages) — plus the tombstones, which are volatile too.
  deactivate();
  ended_.clear();
}

void GlobalCeilingManager::handle_acquire(AcquireReq request,
                                          net::RpcServer::Responder respond) {
  ++acquire_requests_;
  auto it = mirrors_.find(request.txn);
  if (!active_ || it == mirrors_.end() || it->second->aborted ||
      (request.attempt > 0 && it->second->attempt > 0 &&
       it->second->attempt != request.attempt)) {
    ++denials_;
    respond(AcquireResp{false, lease_term_});
    return;
  }
  if (fenced_) {
    // Read fence: this manager's lease expired (it cannot reach a majority
    // of sites), so it must not extend any transaction's lock set — the
    // majority side may already be electing a successor that will adopt
    // the current held sets.
    ++denials_;
    ++fence_denials_;
    respond(AcquireResp{false, lease_term_});
    return;
  }
  Mirror& mirror = *it->second;
  // Re-issued request for a lock this attempt already holds (the grant's
  // reply was lost): answer immediately, idempotently.
  if (pcp_.holds(mirror.ctx, request.object, request.mode)) {
    respond(AcquireResp{true, lease_term_});
    return;
  }
  // Re-issued request while the original grant is still being served:
  // piggyback on its outcome rather than double-acquiring.
  if (auto inflight = mirror.inflight.find(request.object);
      inflight != mirror.inflight.end()) {
    inflight->second.push_back(std::move(respond));
    return;
  }
  mirror.inflight.emplace(request.object,
                          std::vector<net::RpcServer::Responder>{});
  const sim::ProcessId pid = server_.kernel().spawn(
      "gcm-acquire-" + std::to_string(request.txn),
      serve_acquire(mirror, request, std::move(respond)));
  mirror.pending.push_back(pid);
}

sim::Task<void> GlobalCeilingManager::serve_acquire(
    Mirror& mirror, AcquireReq request, net::RpcServer::Responder respond) {
  // Reply on every exit path; a kill (release/abort racing in) replies
  // "denied" from the destructor. Re-issued requests that piggybacked on
  // this grant (mirror->inflight) get the same answer.
  struct ReplyGuard {
    net::RpcServer::Responder respond;
    GlobalCeilingManager* self;
    Mirror* mirror;
    db::ObjectId object;
    sim::ProcessId pid;
    bool granted = false;
    bool sent = false;
    void send() {
      if (sent) return;
      sent = true;
      std::erase(mirror->pending, pid);
      if (granted && self->fenced_) {
        // The lease expired while this grant waited in the ceiling queue:
        // a fenced manager must not let it out (the lock itself stays in
        // the book and is torn down by the client's abort path).
        granted = false;
        ++self->fence_denials_;
      }
      if (!granted) ++self->denials_;
      respond(AcquireResp{granted, self->lease_term_});
      if (auto it = mirror->inflight.find(object);
          it != mirror->inflight.end()) {
        auto extras = std::move(it->second);
        mirror->inflight.erase(it);
        for (net::RpcServer::Responder& extra : extras) {
          extra(AcquireResp{granted, self->lease_term_});
        }
      }
      if (granted && self->observer_ != nullptr) {
        self->observer_->on_lease_grant(self->server_.site(),
                                        self->lease_term_);
      }
    }
    ~ReplyGuard() { send(); }
  } reply{std::move(respond), this, &mirror, request.object,
          server_.kernel().current()->id()};

  if (co_await pcp_.acquire(mirror.ctx, request.object, request.mode)) {
    // This very request closed a (dynamic-arrival) cycle and the mirror
    // was chosen as victim: finish the abort on its behalf.
    finish_abort(mirror);
  } else {
    reply.granted = true;
  }
  reply.send();
}

void GlobalCeilingManager::abort_mirror(db::TxnId victim,
                                        cc::AbortReason /*reason*/) {
  auto it = mirrors_.find(victim.value);
  assert(it != mirrors_.end());
  Mirror& mirror = *it->second;
  assert(!mirror.aborted);
  auto pending = mirror.pending;
  mirror.pending.clear();
  for (const sim::ProcessId pid : pending) server_.kernel().kill(pid);
  finish_abort(mirror);
}

void GlobalCeilingManager::finish_abort(Mirror& mirror) {
  if (mirror.aborted) return;
  mirror.aborted = true;
  auto pending = mirror.pending;
  mirror.pending.clear();
  for (const sim::ProcessId pid : pending) {
    const sim::Process* current = server_.kernel().current();
    if (current != nullptr && current->id() == pid) continue;
    server_.kernel().kill(pid);
  }
  pcp_.release_all(mirror.ctx);
  pcp_.on_end(mirror.ctx);
}

// ---- DataServer ----

DataServer::DataServer(net::MessageServer& server, net::RpcDispatcher& rpc,
                       db::ResourceManager& rm,
                       txn::CommitParticipant::Options participant_options)
    : server_(server),
      rm_(rm),
      participant_(
          server,
          txn::CommitParticipant::Callbacks{
              [this](db::TxnId txn) { return staged_.contains(txn.value); },
              [this](db::TxnId txn, bool commit) {
                auto it = staged_.find(txn.value);
                if (it == staged_.end()) return;
                WriteSetMsg staged = std::move(it->second);
                staged_.erase(it);
                if (!commit) return;
                if (!staged.versions.empty()) {
                  // Replicated-synchronous: install the shipped versions.
                  assert(staged.versions.size() == staged.objects.size());
                  for (std::size_t i = 0; i < staged.objects.size(); ++i) {
                    rm_.apply_update(staged.objects[i], staged.versions[i]);
                  }
                  return;
                }
                // Partitioned: this owner computes the versions itself.
                // Memory-resident in the distributed experiments — the
                // apply is instantaneous; run in a process so a nonzero
                // I/O configuration would also work.
                server_.kernel().spawn(
                    "apply-" + std::to_string(txn.value),
                    [](db::ResourceManager& manager, db::TxnId writer,
                       std::vector<db::ObjectId> objects) -> sim::Task<void> {
                      co_await manager.commit_writes(writer, objects,
                                                     sim::Priority::highest());
                    }(rm_, txn, std::move(staged.objects)));
              }},
          participant_options) {
  server_.on<WriteSetMsg>([this](SiteId /*from*/, WriteSetMsg message) {
    staged_[message.txn] = std::move(message);
  });
  rpc.on<DataReadReq>([this](SiteId /*from*/, DataReadReq request,
                             net::RpcServer::Responder respond) {
    ++remote_reads_;
    respond(DataReadResp{rm_.current(request.object)});
  });
}

// ---- GlobalExecutor ----

GlobalExecutor::GlobalExecutor(Services services, Costs costs)
    : services_(services), costs_(costs) {
  assert(services_.kernel != nullptr && services_.cpu != nullptr &&
         services_.rm != nullptr && services_.schema != nullptr &&
         services_.cc != nullptr && services_.server != nullptr &&
         services_.rpc != nullptr && services_.coordinator != nullptr);
}

sim::Priority GlobalExecutor::sched_priority(const cc::CcTxn& ctx) const {
  return costs_.use_priority_scheduling ? ctx.effective_priority()
                                        : sim::Priority{0, 0};
}

sim::Task<std::optional<cc::AbortReason>> GlobalExecutor::run(
    txn::AttemptContext& attempt, const txn::TransactionSpec& spec) {
  cc::CcTxn& ctx = attempt.ctx;
  services_.cc->on_begin(ctx);
  attempt.began = true;
  const SiteId home = spec.home_site;

  for (const cc::Operation& op : spec.access.operations()) {
    if (auto aborted =
            co_await services_.cc->acquire(ctx, op.object, op.mode)) {
      co_return aborted;
    }
    if (services_.history != nullptr) {
      services_.history->record(spec.id, op.object, op.mode);
    }
    if (services_.schema->has_copy(home, op.object)) {
      co_await services_.rm->read(op.object, sched_priority(ctx));
    } else {
      // Partitioned placement, remote primary copy: one round trip.
      auto response = co_await services_.rpc->call(
          services_.schema->primary_site(op.object), DataReadReq{op.object});
      assert(response.has_value());
      (void)response;
    }
    co_await services_.cpu->execute(costs_.cpu_per_object,
                                    sched_priority(ctx), &attempt.cpu_job);
    attempt.cpu_job = {};
  }

  const auto writes = spec.access.write_set();
  if (writes.empty()) co_return std::nullopt;

  if (services_.schema->placement() == db::Placement::kFullyReplicated) {
    // Synchronous replicated commit: compute the new versions under the
    // global locks and install them at every site before releasing, so all
    // copies stay identical ("every data object maintains most up-to-date
    // value").
    std::vector<db::Version> versions;
    versions.reserve(writes.size());
    for (const db::ObjectId object : writes) {
      versions.push_back(db::Version{
          services_.rm->current(object).sequence + 1, spec.id,
          services_.kernel->now()});
    }
    std::vector<SiteId> participants;
    for (SiteId site = 0; site < services_.schema->site_count(); ++site) {
      if (site == home) continue;
      services_.server->send(site,
                             WriteSetMsg{spec.id.value, writes, versions});
      participants.push_back(site);
    }
    const bool ok = co_await services_.coordinator->commit(
        spec.id, participants, costs_.vote_timeout);
    if (!ok) co_return cc::AbortReason::kSystem;
    for (std::size_t i = 0; i < writes.size(); ++i) {
      services_.rm->apply_update(writes[i], versions[i]);
    }
    co_return std::nullopt;
  }

  // Partitioned placement: 2PC across the owner sites of the write set.
  std::vector<db::ObjectId> local_writes;
  std::map<SiteId, std::vector<db::ObjectId>> remote_writes;
  for (const db::ObjectId object : writes) {
    const SiteId owner = services_.schema->primary_site(object);
    if (owner == home) {
      local_writes.push_back(object);
    } else {
      remote_writes[owner].push_back(object);
    }
  }
  std::vector<SiteId> participants;
  for (auto& [owner, objects] : remote_writes) {
    services_.server->send(owner, WriteSetMsg{spec.id.value, objects, {}});
    participants.push_back(owner);
  }
  const bool ok = co_await services_.coordinator->commit(
      spec.id, participants, costs_.vote_timeout);
  if (!ok) co_return cc::AbortReason::kSystem;
  if (!local_writes.empty()) {
    co_await services_.rm->commit_writes(spec.id, local_writes,
                                         sched_priority(ctx));
  }
  co_return std::nullopt;
}

void GlobalExecutor::release(txn::AttemptContext& attempt,
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
