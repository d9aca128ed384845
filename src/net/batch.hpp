#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/payload.hpp"
#include "net/reliable.hpp"

namespace rtdb::net {

// One coalesced frame: the payloads queued for a destination within a
// flush window, delivered (and retransmitted, on the reliable pathway) as
// a unit and unpacked in enqueue order at the receiver.
struct BatchMsg {
  std::vector<Payload> items;
};

// Control-message batching on top of the ReliableChannel. The ceiling
// schemes emit many small same-destination control messages back to back —
// a registration burst, per-beat heartbeats to every peer — and at large
// site counts the per-message network events dominate the control plane.
// The BatchChannel holds sends to the same destination for a configurable
// window and flushes them as one framed message.
//
// Two pathways, matching the traffic it carries:
//   - send<T>:     reliable — the frame goes through the ReliableChannel,
//                  so registrations/releases keep their retransmission
//                  guarantee (acked and retried as one unit);
//   - send_raw<T>: fire-and-forget — the frame goes through the raw
//                  MessageServer; heartbeats stay loss-tolerant and a
//                  dropped frame costs one beat, exactly like today.
//
// A disabled channel (window == zero, the default) forwards everything
// verbatim to the layer below and registers no BatchMsg handler —
// bit-identical to a build without it. Intra-site sends always bypass.
// The channel keeps no handler registry: each unpacked item goes back to
// the server's table. Frame buffers are recycled: an unpacked frame's
// item vector, emptied, becomes the next frame this site queues.
//
// At most one BatchChannel per MessageServer (it owns the BatchMsg
// handler slot when enabled).
class BatchChannel {
 public:
  struct Options {
    // Zero = batching off (exact passthrough). Keep well under the
    // failover heartbeat interval; see SystemConfig::batch_window.
    sim::Duration window{};
  };

  // `channel` may be null (no reliable layer): both pathways then frame
  // through the raw server.
  BatchChannel(MessageServer& server, ReliableChannel* channel,
               Options options);
  ~BatchChannel();

  BatchChannel(const BatchChannel&) = delete;
  BatchChannel& operator=(const BatchChannel&) = delete;

  // Reliable pathway (registrations, releases, election results).
  template <typename T>
  void send(SiteId to, T&& message) {
    if (!enabled() || to == server_.site()) {
      if (channel_ != nullptr) {
        channel_->send(to, std::forward<T>(message));
      } else {
        server_.send(to, std::forward<T>(message));
      }
      return;
    }
    queue_for(to, /*reliable=*/true).emplace_back(std::forward<T>(message));
  }

  // Fire-and-forget pathway (heartbeats).
  template <typename T>
  void send_raw(SiteId to, T&& message) {
    if (!enabled() || to == server_.site()) {
      server_.send(to, std::forward<T>(message));
      return;
    }
    queue_for(to, /*reliable=*/false).emplace_back(std::forward<T>(message));
  }

  // Flushes everything queued for `to` right now. Callers that are about
  // to block on a reply from `to` (the client's acquire RPC) use this so
  // the registration the reply depends on is not still sitting in the
  // window.
  void flush(SiteId to);

  // Site failure: queued frames and the flush timer are volatile state.
  void on_crash();

  bool enabled() const { return options_.window > sim::Duration::zero(); }
  // Payloads that rode inside a frame rather than going out on their own.
  std::uint64_t batched_messages() const { return batched_messages_; }
  // Frames actually sent (reliable and raw frames count separately).
  std::uint64_t batch_flushes() const { return batch_flushes_; }

 private:
  struct Queues {
    std::vector<Payload> reliable;
    std::vector<Payload> raw;
  };

  // The queue a payload for `to` joins, counted as batched; arms the
  // flush timer. The caller builds the payload in place at its back.
  std::vector<Payload>& queue_for(SiteId to, bool reliable);
  void flush_queues(SiteId to);
  void send_frame(SiteId to, std::vector<Payload>& items, bool reliable);
  void on_timer();
  void handle_frame(SiteId from, BatchMsg& frame);

  MessageServer& server_;
  ReliableChannel* channel_;
  Options options_;
  // By destination site; sized on the first enqueue.
  std::vector<Queues> queues_;
  // Destinations with queued payloads, in first-enqueue order.
  std::vector<SiteId> pending_;
  // Emptied item vectors of unpacked frames, reused by the next frames
  // queued here (bounded by the site count).
  std::vector<std::vector<Payload>> spare_;
  bool timer_armed_ = false;
  sim::EventId timer_{};
  std::uint64_t batched_messages_ = 0;
  std::uint64_t batch_flushes_ = 0;
};

}  // namespace rtdb::net
