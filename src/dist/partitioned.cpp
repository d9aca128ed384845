#include "dist/partitioned.hpp"

#include <cassert>
#include <utility>

namespace rtdb::dist {

using net::SiteId;

// ---- ShardRouter ----

ShardRouter::ShardRouter(net::MessageServer& server, net::RpcDispatcher& rpc,
                         std::uint32_t shards)
    : server_(server),
      shards_(shards),
      managers_(shards, nullptr),
      failovers_(shards, nullptr) {
  assert(shards >= 1);
  server_.on<RegisterTxnMsg>([this](SiteId from, RegisterTxnMsg message) {
    route_register(from, std::move(message));
  });
  server_.on<ReleaseAllMsg>([this](SiteId /*from*/, ReleaseAllMsg message) {
    route_release(message);
  });
  server_.on<EndTxnMsg>([this](SiteId /*from*/, EndTxnMsg message) {
    route_end(message);
  });
  server_.on<HeartbeatMsg>([this](SiteId from, HeartbeatMsg msg) {
    route_view(from, msg.term, msg.manager, msg.shard);
  });
  server_.on<ManagerElectedMsg>([this](SiteId from, ManagerElectedMsg msg) {
    route_view(from, msg.term, msg.manager, msg.shard);
  });
  rpc.on<AcquireReq>([this](SiteId /*from*/, AcquireReq request,
                            net::RpcServer::Responder respond) {
    route_acquire(std::move(request), std::move(respond));
  });
}

void ShardRouter::set_manager(std::uint32_t shard,
                              GlobalCeilingManager* manager) {
  assert(shard < shards_);
  managers_[shard] = manager;
}

void ShardRouter::set_failover(std::uint32_t shard,
                               FailoverCoordinator* failover) {
  assert(shard < shards_);
  failovers_[shard] = failover;
}

void ShardRouter::route_register(SiteId from, RegisterTxnMsg message) {
  if (message.shard >= shards_) {
    ++misrouted_;
    return;
  }
  GlobalCeilingManager* manager = managers_[message.shard];
  if (manager != nullptr) manager->handle_register(from, std::move(message));
}

void ShardRouter::route_release(const ReleaseAllMsg& message) {
  if (message.shard >= shards_) {
    ++misrouted_;
    return;
  }
  GlobalCeilingManager* manager = managers_[message.shard];
  if (manager != nullptr) manager->handle_release(message);
}

void ShardRouter::route_end(const EndTxnMsg& message) {
  if (message.shard >= shards_) {
    ++misrouted_;
    return;
  }
  GlobalCeilingManager* manager = managers_[message.shard];
  if (manager != nullptr) manager->handle_end(message);
}

void ShardRouter::route_acquire(AcquireReq request,
                                net::RpcServer::Responder respond) {
  if (request.shard >= shards_) {
    ++misrouted_;
    respond(AcquireResp{false, 0});
    return;
  }
  GlobalCeilingManager* manager = managers_[request.shard];
  if (manager == nullptr) {
    // No endpoint for this shard here (fault-free single-host layout, or
    // a standby never wired): deny; the client re-targets on its next
    // election view.
    respond(AcquireResp{false, 0});
    return;
  }
  manager->handle_acquire(std::move(request), std::move(respond));
}

void ShardRouter::route_view(SiteId from, std::uint64_t term, SiteId manager,
                             std::uint32_t shard) {
  if (shard >= shards_) {
    ++misrouted_;
    return;
  }
  FailoverCoordinator* failover = failovers_[shard];
  if (failover != nullptr) failover->handle_view(from, term, manager);
}

// ---- PartitionedCeilingClient ----

PartitionedCeilingClient::PartitionedCeilingClient(
    sim::Kernel& kernel, net::MessageServer& server, net::RpcClient& rpc,
    Options options, net::ReliableChannel* channel, net::BatchChannel* batch)
    : cc::ConcurrencyController(kernel),
      server_(server),
      rpc_(rpc),
      options_(std::move(options)),
      channel_(channel),
      batch_(batch),
      shards_(options_.shards) {
  assert(options_.shards >= 1);
  assert(options_.shard_of);
  // Shard s's initial manager is site s (see SystemConfig::shards).
  for (std::uint32_t s = 0; s < options_.shards; ++s) {
    shards_[s].manager_site = static_cast<SiteId>(s);
  }
}

void PartitionedCeilingClient::do_begin(cc::CcTxn& txn) {
  auto& by_shard = registered_[txn.id.value];
  by_shard.clear();
  for (const cc::Operation& op : txn.access.operations()) {
    const std::uint32_t shard = options_.shard_of(op.object);
    auto [it, inserted] = by_shard.try_emplace(shard);
    if (inserted) {
      RegisterTxnMsg& msg = it->second;
      msg.txn = txn.id.value;
      msg.attempt = txn.attempt;
      msg.priority_key = txn.base_priority.key();
      msg.priority_tie = txn.base_priority.tie();
      msg.deadline_ticks = txn.deadline.as_ticks();
      msg.shard = shard;
    }
    it->second.operations.push_back(op);
  }
  // Ascending shard order: deterministic, and matches the order acquire
  // walks the declared set.
  for (const auto& [shard, msg] : by_shard) send_control(shard, msg);
}

sim::Task<std::optional<cc::AbortReason>> PartitionedCeilingClient::acquire(
    cc::CcTxn& txn, db::ObjectId object, cc::LockMode mode) {
  const std::uint32_t shard = options_.shard_of(object);
  // The whole round trip plus any remote ceiling blocking counts as
  // blocked time: it is exactly the synchronization delay the paper
  // attributes to the global scheme.
  begin_block(txn);
  notify_block(txn, object, mode, {});  // blockers unknown: they are remote
  struct EndBlock {
    PartitionedCeilingClient* self;
    cc::CcTxn* txn;
    ~EndBlock() { self->end_block(*txn); }
  } guard{this, &txn};
  const AcquireReq request{txn.id.value, txn.attempt, object, mode, shard};
  Shard& sh = shards_[shard];
  AcquireResp resp{};
  // The Register this acquire depends on may still sit in the batch
  // window; push it out before blocking on the shard manager's answer.
  if (batch_ != nullptr) batch_->flush(sh.manager_site);
  if (options_.acquire_timeout.is_zero()) {
    std::optional<net::Payload> response =
        co_await rpc_.call(sh.manager_site, request);
    assert(response.has_value());  // no client-side timeout in use
    resp = response->get<AcquireResp>();
  } else {
    // Faulty runs: the manager may have crashed (no reply ever) or the
    // request/reply may have been dropped. Re-issue until an answer comes
    // back; after a failover sh.manager_site already points at the shard's
    // successor. The manager side makes re-issues idempotent; the attempt
    // deadline watchdog bounds the loop.
    while (true) {
      // After a failover the re-registration may be queued for the new
      // manager; it must land before this re-issued request.
      if (batch_ != nullptr) batch_->flush(sh.manager_site);
      std::optional<net::Payload> response = co_await rpc_.call(
          sh.manager_site, request, options_.acquire_timeout);
      if (!response.has_value()) continue;
      resp = response->get<AcquireResp>();
      if (resp.term < sh.term) {
        // Stamped with an expired term for this shard: a fenced-off old
        // manager answered a retried request. Never act on it — not even
        // on a denial — and re-issue against the current manager.
        ++stale_grants_rejected_;
        continue;
      }
      break;
    }
  }
  if (!resp.granted) {
    count_protocol_abort();
    notify_abort(txn.id, cc::AbortReason::kDeadlockVictim);
    co_return cc::AbortReason::kDeadlockVictim;
  }
  if (sh.observer != nullptr) {
    sh.observer->on_grant_accepted(server_.site(), resp.term);
  }
  // Track the held set for failover re-registration of this shard.
  if (auto it = registered_.find(txn.id.value); it != registered_.end()) {
    if (auto s = it->second.find(shard); s != it->second.end()) {
      s->second.held.push_back(cc::Operation{object, mode});
    }
  }
  count_grant();
  notify_grant(txn, object, mode);
  co_return std::nullopt;
}

void PartitionedCeilingClient::do_release_all(cc::CcTxn& txn) {
  auto it = registered_.find(txn.id.value);
  if (it == registered_.end()) return;
  for (auto& [shard, msg] : it->second) {
    msg.held.clear();
    send_control(shard, ReleaseAllMsg{txn.id.value, txn.attempt, shard});
  }
}

void PartitionedCeilingClient::do_end(cc::CcTxn& txn) {
  auto it = registered_.find(txn.id.value);
  if (it == registered_.end()) return;
  for (const auto& [shard, msg] : it->second) {
    (void)msg;
    send_control(shard, EndTxnMsg{txn.id.value, txn.attempt, shard});
  }
  registered_.erase(it);
}

void PartitionedCeilingClient::set_manager(std::uint32_t shard,
                                           SiteId manager,
                                           std::uint64_t term) {
  Shard& sh = shards_[shard];
  if (term > sh.term) sh.term = term;  // terms only move forward
  if (manager == sh.manager_site) return;
  sh.manager_site = manager;
  // Rebuild the successor's shard state: re-register every live local
  // transaction's slice of this shard with its current held set.
  for (const auto& [txn, by_shard] : registered_) {
    (void)txn;
    if (auto it = by_shard.find(shard); it != by_shard.end()) {
      send_control(shard, it->second);
    }
  }
}

}  // namespace rtdb::dist
