#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "net/payload.hpp"
#include "sim/kernel.hpp"
#include "sim/semaphore.hpp"
#include "sim/task.hpp"

namespace rtdb::net {

// The per-site Message Server of the prototyping environment: a kernel
// process that listens on the site's inbox and forwards each message to the
// handler registered for its payload type (the paper's "forwards the
// message to the proper servers or TM").
//
// The server holds the site's only handler table, indexed by message tag.
// The layers that wrap payloads (ReliableChannel, BatchChannel) register
// handlers for their wrapper types and hand each unwrapped payload back to
// dispatch(), so one registration serves a payload whether it arrives on
// its own, inside a batch frame, or inside a reliable wrapper.
//
// Handlers run synchronously in the dispatcher; work that needs to block
// must spawn its own process (the transaction manager does).
class MessageServer {
 public:
  MessageServer(sim::Kernel& kernel, Network& network, SiteId site);
  ~MessageServer();

  MessageServer(const MessageServer&) = delete;
  MessageServer& operator=(const MessageServer&) = delete;

  SiteId site() const { return site_; }
  sim::Kernel& kernel() { return kernel_; }
  Network& network() { return network_; }

  // Registers the handler for payloads of type T, called as
  // handler(SiteId from, T message). One handler per type.
  template <typename T, typename F>
  void on(F handler) {
    install(msg_tag<T>(),
            [handler = std::move(handler)](SiteId from,
                                           Payload& payload) mutable {
              handler(from, std::move(payload.get<T>()));
            });
  }

  // Hands `payload` to the handler registered for its type, or counts it
  // as unhandled. The dispatcher calls this for every message it
  // retrieves; the channels call it for every payload they unwrap.
  void dispatch(SiteId from, Payload& payload);

  // Fire-and-forget send to `to`'s message server.
  template <typename T>
  void send(SiteId to, T&& message) {
    network_.send(
        Envelope{site_, to, Payload{std::forward<T>(message)}, nullptr});
  }

  // Rendezvous send: completes with true once the destination Message
  // Server retrieves the message, or false if `timeout` elapses first
  // (e.g. the receiving site is down). This is the paper's synchronous
  // Ada-style send with time-out unblocking.
  template <typename T>
  sim::Task<bool> send_sync(SiteId to, T message, sim::Duration timeout) {
    auto ack = std::make_shared<sim::Semaphore>(kernel_, 0);
    network_.send(Envelope{site_, to, Payload{std::move(message)},
                           [ack] { ack->release(); }});
    const sim::WakeStatus status = co_await ack->acquire_for(timeout);
    co_return status == sim::WakeStatus::kOk;
  }

  // Starts the dispatcher process. Must be called before messages arrive;
  // idempotent.
  void start();
  // Stops the dispatcher; pending inbox messages stay queued.
  void stop();
  bool running() const { return running_; }

  // Payloads handed to a handler (a frame or wrapper counts, and so does
  // each payload inside it).
  std::uint64_t dispatched() const { return dispatched_; }
  // Payloads with no handler for their type, whether they arrived on their
  // own, in a batch frame or in a reliable wrapper.
  std::uint64_t unhandled() const { return unhandled_; }

 private:
  using Handler = std::function<void(SiteId from, Payload& payload)>;

  void install(MsgTag tag, Handler handler);
  sim::Task<void> dispatch_loop();

  sim::Kernel& kernel_;
  Network& network_;
  SiteId site_;
  std::vector<Handler> handlers_;  // by tag; empty = no handler
  sim::ProcessId dispatcher_{};
  bool running_ = false;
  std::uint64_t dispatched_ = 0;
  std::uint64_t unhandled_ = 0;
};

}  // namespace rtdb::net
