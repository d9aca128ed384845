#include "dist/replication.hpp"

#include <cassert>

namespace rtdb::dist {

ReplicationManager::ReplicationManager(net::MessageServer& server,
                                       db::ResourceManager& rm,
                                       net::ReliableChannel* channel)
    : server_(server), rm_(rm), channel_(channel) {
  // Raw and reliably wrapped updates alike reach this one handler.
  server_.on<ReplicaUpdateMsg>(
      [this](net::SiteId /*from*/, ReplicaUpdateMsg message) {
        apply(message);
      });
}

void ReplicationManager::propagate(std::span<const db::ObjectId> objects,
                                   std::span<const db::Version> versions) {
  assert(objects.size() == versions.size());
  const std::uint32_t sites = server_.network().site_count();
  for (std::size_t i = 0; i < objects.size(); ++i) {
    assert(rm_.schema().is_primary(server_.site(), objects[i]));
    for (net::SiteId site = 0; site < sites; ++site) {
      if (site == server_.site()) continue;
      if (channel_ != nullptr) {
        channel_->send(site, ReplicaUpdateMsg{objects[i], versions[i]});
      } else {
        server_.send(site, ReplicaUpdateMsg{objects[i], versions[i]});
      }
      ++sent_;
    }
  }
}

void ReplicationManager::apply(ReplicaUpdateMsg message) {
  const sim::Duration lag =
      server_.kernel().now() - message.version.written_at;
  if (rm_.apply_replica_update(message.object, message.version)) {
    ++applied_;
    total_lag_ += lag;
    if (lag > max_lag_) max_lag_ = lag;
  } else {
    ++stale_;
  }
}

}  // namespace rtdb::dist
