#include "net/reliable.hpp"

#include <utility>

namespace rtdb::net {

ReliableChannel::ReliableChannel(MessageServer& server, Options options,
                                 sim::RandomStream stream)
    : server_(server), options_(options), stream_(stream) {
  server_.on<ReliableMsg>([this](SiteId from, ReliableMsg&& message) {
    handle_wrapped(from, message);
  });
  server_.on<ReliableAckMsg>(
      [this](SiteId, ReliableAckMsg message) { handle_ack(message.seq); });
}

ReliableChannel::~ReliableChannel() {
  for (auto& [seq, pending] : pending_) {
    server_.kernel().cancel_event(pending.timer);
  }
}

void ReliableChannel::send_reliable(SiteId to, Payload&& payload) {
  const std::uint64_t seq = next_seq_++;
  Pending& pending = pending_[seq];
  pending.to = to;
  pending.payload = payload;  // keep a copy for retransmission
  server_.send(to, ReliableMsg{seq, std::move(payload)});
  arm_timer(seq, pending);
}

void ReliableChannel::arm_timer(std::uint64_t seq, Pending& pending) {
  // Exponential backoff with deterministic jitter: base * 2^attempts plus a
  // uniform draw in [0, base) from this channel's forked stream. The wait
  // saturates at backoff_max — without the clamp, ~60 retries overflow the
  // int64 tick count and schedule a negative delay.
  sim::Duration wait = options_.backoff_base;
  for (int i = 0; i < pending.attempts && wait < options_.backoff_max; ++i) {
    wait = wait * 2;
  }
  if (wait > options_.backoff_max) wait = options_.backoff_max;
  const std::int64_t span = options_.backoff_base.as_ticks();
  if (span > 0) {
    wait = wait + sim::Duration::ticks(stream_.uniform_int(0, span - 1));
  }
  pending.waited = wait;
  pending.timer =
      server_.kernel().schedule_in(wait, [this, seq] { on_timer(seq); });
}

void ReliableChannel::on_timer(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // acked while the timer was in flight
  Pending& pending = it->second;
  // The armed wait actually elapsed; waits cut short by an ack don't count.
  backoff_wait_ = backoff_wait_ + pending.waited;
  if (pending.attempts >= options_.retransmit_max) {
    ++gave_up_;
    pending_.erase(it);
    return;
  }
  ++pending.attempts;
  ++retransmissions_;
  server_.send(pending.to, ReliableMsg{seq, pending.payload});
  arm_timer(seq, pending);
}

void ReliableChannel::handle_wrapped(SiteId from, ReliableMsg& message) {
  // Ack every copy: the first ack may have been dropped.
  server_.send(from, ReliableAckMsg{message.seq});
  if (!seen_[from].insert(message.seq).second) {
    ++duplicates_;
    return;
  }
  server_.dispatch(from, message.payload);
}

void ReliableChannel::handle_ack(std::uint64_t seq) {
  auto it = pending_.find(seq);
  if (it == pending_.end()) return;  // duplicate ack / already gave up
  server_.kernel().cancel_event(it->second.timer);
  pending_.erase(it);
}

void ReliableChannel::on_crash() {
  for (auto& [seq, pending] : pending_) {
    server_.kernel().cancel_event(pending.timer);
  }
  pending_.clear();
}

}  // namespace rtdb::net
