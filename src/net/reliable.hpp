#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/message_server.hpp"
#include "net/payload.hpp"
#include "sim/random.hpp"

namespace rtdb::net {

// Retransmissions per message before a System's reliable channels give up.
inline constexpr int kRetransmitMax = 5;

// Sequence-numbered wrapper around an application payload. The receiver
// acks every copy it sees (the first ack may itself be lost) and hands the
// payload to its MessageServer's handler table exactly once.
struct ReliableMsg {
  std::uint64_t seq = 0;
  Payload payload;
};
struct ReliableAckMsg {
  std::uint64_t seq = 0;
};

// At-most-once-delivery networks lose control messages for good; the
// ReliableChannel turns the per-site MessageServer into an acked,
// retransmitting endpoint for the protocol messages that must not vanish
// (ceiling registrations/releases, replica updates, recovery sync rounds).
//
// Retransmission is bounded (Options::retransmit_max) with exponential
// backoff; the per-retry jitter is drawn from a stream forked off the run
// seed, so the whole retransmission schedule is a pure function of
// (config, seed) and the sweep engine's --jobs N byte-identity survives.
//
// A disabled channel (Options::enabled == false, the fault-free default)
// forwards sends verbatim to the raw MessageServer — bit-identical to a
// build without it. Intra-site sends always bypass wrapping (they bypass
// the network too). The channel keeps no handler registry: unwrapped
// payloads go back to the server's table, so a handler registered there
// serves raw and wrapped copies alike.
//
// At most one ReliableChannel per MessageServer (it owns the ReliableMsg
// and ReliableAckMsg handler slots).
class ReliableChannel {
 public:
  struct Options {
    bool enabled = false;
    // Retransmissions per message before giving up (the original send is
    // not counted).
    int retransmit_max = kRetransmitMax;
    // First retransmission fires after backoff_base (+ jitter); each
    // further one doubles the wait, saturating at backoff_max. The cap
    // keeps the doubling from overflowing Duration's tick count when a
    // long outage (multi-interval partition) meets a large retry budget.
    sim::Duration backoff_base = sim::Duration::units(8);
    sim::Duration backoff_max = sim::Duration::units(256);
  };

  ReliableChannel(MessageServer& server, Options options,
                  sim::RandomStream stream);
  ~ReliableChannel();

  ReliableChannel(const ReliableChannel&) = delete;
  ReliableChannel& operator=(const ReliableChannel&) = delete;

  // Fire-and-forget from the caller's point of view; the channel keeps
  // retransmitting until acked or the retry budget is exhausted.
  template <typename T>
  void send(SiteId to, T&& message) {
    if (!options_.enabled || to == server_.site()) {
      server_.send(to, std::forward<T>(message));
      return;
    }
    send_reliable(to, Payload{std::forward<T>(message)});
  }

  // Site failure: un-acked transmissions and their timers are volatile
  // state and die with the site. (Receive-side dedup survives: sequence
  // numbers are never reused, so remembering them is always safe.)
  void on_crash();

  bool enabled() const { return options_.enabled; }
  std::size_t in_flight() const { return pending_.size(); }
  std::uint64_t retransmissions() const { return retransmissions_; }
  // Total virtual time spent waiting in backoff before a retransmission.
  sim::Duration backoff_wait() const { return backoff_wait_; }
  // Messages abandoned after the retry budget (receiver down for longer
  // than the whole backoff schedule).
  std::uint64_t gave_up() const { return gave_up_; }
  std::uint64_t duplicates_suppressed() const { return duplicates_; }

 private:
  struct Pending {
    SiteId to = 0;
    Payload payload;
    int attempts = 0;  // retransmissions sent so far
    sim::Duration waited{};
    sim::EventId timer{};
  };

  void send_reliable(SiteId to, Payload&& payload);
  void arm_timer(std::uint64_t seq, Pending& pending);
  void on_timer(std::uint64_t seq);
  void handle_wrapped(SiteId from, ReliableMsg& message);
  void handle_ack(std::uint64_t seq);

  MessageServer& server_;
  Options options_;
  sim::RandomStream stream_;
  std::uint64_t next_seq_ = 1;
  // Ordered so crash teardown walks it deterministically.
  std::map<std::uint64_t, Pending> pending_;
  std::unordered_map<SiteId, std::unordered_set<std::uint64_t>> seen_;
  std::uint64_t retransmissions_ = 0;
  sim::Duration backoff_wait_{};
  std::uint64_t gave_up_ = 0;
  std::uint64_t duplicates_ = 0;
};

}  // namespace rtdb::net
