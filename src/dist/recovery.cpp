#include "dist/recovery.hpp"

namespace rtdb::dist {

RecoveryManager::RecoveryManager(net::MessageServer& server,
                                 db::ResourceManager& rm, Options options,
                                 net::ReliableChannel* channel)
    : server_(server), rm_(rm), options_(options), channel_(channel) {
  server_.on<SyncRequestMsg>(
      [this](net::SiteId from, SyncRequestMsg) { serve_sync_request(from); });
  server_.on<SyncReplyMsg>([this](net::SiteId from, SyncReplyMsg reply) {
    apply_sync_reply(from, std::move(reply));
  });
}

RecoveryManager::~RecoveryManager() {
  if (retry_timer_.valid()) server_.kernel().cancel_event(retry_timer_);
}

void RecoveryManager::request_catch_up() {
  ++catch_ups_;
  if (retry_timer_.valid()) {
    server_.kernel().cancel_event(retry_timer_);
    retry_timer_ = {};
  }
  pending_.clear();
  attempts_ = 1;
  const std::uint32_t sites = server_.network().site_count();
  for (net::SiteId site = 0; site < sites; ++site) {
    if (site == server_.site()) continue;
    pending_.insert(site);
    send_control(site, SyncRequestMsg{});
  }
  arm_retry_timer();
}

void RecoveryManager::arm_retry_timer() {
  if (pending_.empty() || attempts_ >= options_.max_attempts ||
      options_.retry_timeout.is_zero()) {
    return;
  }
  retry_timer_ = server_.kernel().schedule_in(options_.retry_timeout,
                                              [this] { on_retry_timer(); });
}

void RecoveryManager::on_retry_timer() {
  retry_timer_ = {};
  if (pending_.empty()) return;
  ++attempts_;
  for (const net::SiteId site : pending_) {
    ++retries_;
    send_control(site, SyncRequestMsg{});
  }
  arm_retry_timer();
}

void RecoveryManager::serve_sync_request(net::SiteId requester) {
  ++served_;
  SyncReplyMsg reply;
  for (const db::ObjectId object : rm_.schema().primaries_at(server_.site())) {
    reply.updates.push_back(ReplicaUpdateMsg{object, rm_.current(object)});
  }
  send_control(requester, std::move(reply));
}

void RecoveryManager::apply_sync_reply(net::SiteId from, SyncReplyMsg reply) {
  pending_.erase(from);
  for (const ReplicaUpdateMsg& update : reply.updates) {
    // Initial (sequence 0) versions carry no information; the monotonic
    // apply would reject them anyway, but skip the call for clarity.
    if (update.version.sequence == 0) continue;
    if (rm_.apply_replica_update(update.object, update.version)) {
      ++recovered_;
    }
  }
}

}  // namespace rtdb::dist
