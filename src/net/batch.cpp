#include "net/batch.hpp"

#include <algorithm>
#include <utility>

namespace rtdb::net {

BatchChannel::BatchChannel(MessageServer& server, ReliableChannel* channel,
                           Options options)
    : server_(server), channel_(channel), options_(options) {
  if (!enabled()) return;  // passthrough: no handler slot, no timer, ever
  queues_.resize(server_.network().site_count());
  server_.on<BatchMsg>(
      [this](SiteId from, BatchMsg frame) { handle_frame(from, frame); });
}

BatchChannel::~BatchChannel() {
  if (timer_armed_) server_.kernel().cancel_event(timer_);
}

std::vector<Payload>& BatchChannel::queue_for(SiteId to, bool reliable) {
  Queues& queues = queues_[to];
  if (queues.reliable.empty() && queues.raw.empty()) pending_.push_back(to);
  std::vector<Payload>& items = reliable ? queues.reliable : queues.raw;
  if (items.capacity() == 0 && !spare_.empty()) {
    items = std::move(spare_.back());
    spare_.pop_back();
  }
  ++batched_messages_;
  if (!timer_armed_) {
    timer_armed_ = true;
    timer_ = server_.kernel().schedule_in(options_.window, [this] {
      timer_armed_ = false;
      on_timer();
    });
  }
  return items;
}

void BatchChannel::flush(SiteId to) {
  const auto it = std::find(pending_.begin(), pending_.end(), to);
  if (it == pending_.end()) return;
  pending_.erase(it);
  flush_queues(to);
}

void BatchChannel::flush_queues(SiteId to) {
  // Reliable frame first: an election result queued reliably must not be
  // overtaken by the raw heartbeats of the same window.
  Queues& queues = queues_[to];
  if (!queues.reliable.empty()) send_frame(to, queues.reliable, true);
  if (!queues.raw.empty()) send_frame(to, queues.raw, false);
}

void BatchChannel::send_frame(SiteId to, std::vector<Payload>& items,
                              bool reliable) {
  ++batch_flushes_;
  BatchMsg frame{std::move(items)};
  if (reliable && channel_ != nullptr) {
    channel_->send(to, std::move(frame));
  } else {
    server_.send(to, std::move(frame));
  }
}

void BatchChannel::on_timer() {
  // Ascending destination order keeps the delivery schedule a pure
  // function of (config, seed). Sending a frame never queues another
  // payload here, so pending_ is stable while it is walked.
  std::sort(pending_.begin(), pending_.end());
  for (const SiteId to : pending_) flush_queues(to);
  pending_.clear();
}

void BatchChannel::handle_frame(SiteId from, BatchMsg& frame) {
  for (Payload& item : frame.items) server_.dispatch(from, item);
  if (spare_.size() < queues_.size()) {
    frame.items.clear();
    spare_.push_back(std::move(frame.items));
  }
}

void BatchChannel::on_crash() {
  if (timer_armed_) {
    server_.kernel().cancel_event(timer_);
    timer_armed_ = false;
  }
  for (const SiteId to : pending_) {
    queues_[to].reliable.clear();
    queues_[to].raw.clear();
  }
  pending_.clear();
}

}  // namespace rtdb::net
