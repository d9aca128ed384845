#include "net/message_server.hpp"

#include <cassert>
#include <optional>

namespace rtdb::net {

MessageServer::MessageServer(sim::Kernel& kernel, Network& network, SiteId site)
    : kernel_(kernel), network_(network), site_(site) {}

MessageServer::~MessageServer() {
  // The kernel may already have drained; only kill a live dispatcher.
  if (running_ && kernel_.alive(dispatcher_)) kernel_.kill(dispatcher_);
}

void MessageServer::start() {
  if (running_) return;
  running_ = true;
  dispatcher_ = kernel_.spawn("msg-server-" + std::to_string(site_),
                              dispatch_loop());
}

void MessageServer::stop() {
  if (!running_) return;
  running_ = false;
  if (kernel_.alive(dispatcher_)) kernel_.kill(dispatcher_);
}

void MessageServer::install(MsgTag tag, Handler handler) {
  if (tag >= handlers_.size()) handlers_.resize(tag + 1);
  assert(!handlers_[tag] && "handler for this message type already registered");
  handlers_[tag] = std::move(handler);
}

void MessageServer::dispatch(SiteId from, Payload& payload) {
  const MsgTag tag = payload.tag();
  if (tag >= handlers_.size() || !handlers_[tag]) {
    ++unhandled_;
    return;
  }
  ++dispatched_;
  handlers_[tag](from, payload);
}

sim::Task<void> MessageServer::dispatch_loop() {
  auto& inbox = network_.inbox(site_);
  for (;;) {
    const std::optional<std::uint32_t> slot = co_await inbox.receive();
    // "When the MS retrieves a message, it wakes the sender process and
    // forwards the message to the proper servers or TM."
    Envelope envelope = network_.retrieve(*slot);
    if (envelope.on_retrieved) envelope.on_retrieved();
    dispatch(envelope.from, envelope.body);
  }
}

}  // namespace rtdb::net
