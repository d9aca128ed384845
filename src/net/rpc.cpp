#include "net/rpc.hpp"

namespace rtdb::net {

RpcClient::RpcClient(MessageServer& server) : server_(server) {
  server_.on<RpcResponseMsg>([this](SiteId /*from*/, RpcResponseMsg message) {
    on_response(std::move(message));
  });
}

void RpcClient::on_response(RpcResponseMsg message) {
  auto it = pending_.find(message.correlation);
  if (it == pending_.end()) {
    // Caller timed out or was killed; account the late arrival so retry
    // loops can be audited, and make sure it can't be confused with a
    // response to a newer call.
    if (expired_.erase(message.correlation) > 0) ++late_responses_;
    return;
  }
  it->second->response = std::move(message.payload);
  it->second->arrived.release();
}

sim::Task<std::optional<Payload>> RpcClient::call(
    SiteId to, Payload request, std::optional<sim::Duration> timeout) {
  const std::uint64_t correlation = next_correlation_++;
  auto pending = std::make_shared<Pending>(server_.kernel());
  pending_.emplace(correlation, pending);
  // Deregister on every exit path (normal, timeout, caller killed).
  struct Deregister {
    RpcClient* client;
    std::uint64_t correlation;
    ~Deregister() { client->pending_.erase(correlation); }
  } deregister{this, correlation};

  server_.send(to, RpcRequestMsg{correlation, server_.site(), std::move(request)});
  if (timeout.has_value()) {
    const sim::WakeStatus status = co_await pending->arrived.acquire_for(*timeout);
    if (status != sim::WakeStatus::kOk) {
      expired_.insert(correlation);
      co_return std::nullopt;
    }
  } else {
    co_await pending->arrived.acquire();
  }
  co_return std::move(pending->response);
}

RpcServer::RpcServer(MessageServer& server) : server_(server) {
  server_.on<RpcRequestMsg>([this](SiteId from, RpcRequestMsg&& message) {
    if (!seen_[message.reply_to].insert(message.correlation).second) {
      ++duplicates_;
      return;
    }
    ++served_;
    const MsgTag tag = message.payload.tag();
    if (tag >= handlers_.size() || !handlers_[tag]) return;
    handlers_[tag](from, message.payload,
                   Responder{&server_, message.correlation, message.reply_to});
  });
}

void RpcServer::Responder::operator()(Payload&& response) const {
  server_->send(reply_to_, RpcResponseMsg{correlation_, std::move(response)});
}

}  // namespace rtdb::net
