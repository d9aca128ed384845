#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/message_server.hpp"
#include "net/network.hpp"
#include "net/payload.hpp"
#include "sim/kernel.hpp"
#include "sim/semaphore.hpp"
#include "sim/task.hpp"

namespace rtdb::net {

// Correlated request/response on top of the message servers. Used by the
// distributed ceiling protocols: a transaction manager calls the (possibly
// remote) ceiling manager and blocks until the grant comes back.
//
// The server side hands each request a Responder that may be invoked
// *later* — exactly what a lock manager needs to defer a grant until the
// lock becomes available — and from any site-local context.

struct RpcRequestMsg {
  std::uint64_t correlation = 0;
  SiteId reply_to = 0;
  Payload payload;
};

struct RpcResponseMsg {
  std::uint64_t correlation = 0;
  Payload payload;
};

class RpcClient {
 public:
  // Registers the RpcResponseMsg handler on `server`; at most one RpcClient
  // per MessageServer.
  explicit RpcClient(MessageServer& server);

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Sends `request` to `to` and suspends until the response arrives.
  // Returns nullopt on timeout (when given). Kill-safe: a killed caller
  // deregisters its pending call and a late response is dropped.
  sim::Task<std::optional<Payload>> call(
      SiteId to, Payload request,
      std::optional<sim::Duration> timeout = std::nullopt);

  std::size_t pending_calls() const { return pending_.size(); }
  // Responses that arrived after their caller's timeout and were discarded
  // by correlation id (instead of waking a stale or reused waiter).
  std::uint64_t late_responses() const { return late_responses_; }

 private:
  struct Pending {
    sim::Semaphore arrived;
    std::optional<Payload> response;
    explicit Pending(sim::Kernel& k) : arrived(k, 0) {}
  };

  void on_response(RpcResponseMsg message);

  MessageServer& server_;
  std::uint64_t next_correlation_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<Pending>> pending_;
  // Correlations whose caller gave up on a timeout: the response may still
  // be in flight and must be dropped on arrival, not treated as unknown.
  std::unordered_set<std::uint64_t> expired_;
  std::uint64_t late_responses_ = 0;
};

// The server side: routes each request by payload type to the handler
// registered for it, so several services (lock manager, data server, ...)
// share one site's RPC endpoint. At most one RpcServer per MessageServer
// (it owns the RpcRequestMsg handler slot).
class RpcServer {
 public:
  // Invoke to answer the request; safe to call immediately or long after
  // the handler returned (deferred grant). Copyable, and small enough that
  // handing one out allocates nothing.
  class Responder {
   public:
    Responder() = default;
    void operator()(Payload&& response) const;

   private:
    friend class RpcServer;
    Responder(MessageServer* server, std::uint64_t correlation,
              SiteId reply_to)
        : server_(server), correlation_(correlation), reply_to_(reply_to) {}

    MessageServer* server_ = nullptr;
    std::uint64_t correlation_ = 0;
    SiteId reply_to_ = 0;
  };

  explicit RpcServer(MessageServer& server);

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  // Registers the handler for requests of type T, called as
  // handler(SiteId from, T request, Responder respond). One handler per
  // type; a request with no handler is never answered (its caller times
  // out, or waits forever by design without a timeout).
  template <typename T, typename F>
  void on(F handler) {
    const MsgTag tag = msg_tag<T>();
    if (tag >= handlers_.size()) handlers_.resize(tag + 1);
    assert(!handlers_[tag] &&
           "handler for this request type already registered");
    handlers_[tag] = [handler = std::move(handler)](
                         SiteId from, Payload& request,
                         const Responder& respond) mutable {
      handler(from, std::move(request.get<T>()), respond);
    };
  }

  std::uint64_t requests_served() const { return served_; }
  // Re-deliveries of an already-served (caller, correlation) pair; the
  // handler must not run twice (it would, e.g., double-acquire a lock).
  std::uint64_t duplicates_dropped() const { return duplicates_; }

 private:
  using Handler =
      std::function<void(SiteId from, Payload& request, const Responder&)>;

  MessageServer& server_;
  std::vector<Handler> handlers_;  // by tag; empty = no handler
  std::unordered_map<SiteId, std::unordered_set<std::uint64_t>> seen_;
  std::uint64_t served_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace rtdb::net
