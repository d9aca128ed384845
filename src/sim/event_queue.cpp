#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace rtdb::sim {

EventId EventQueue::schedule(TimePoint when, EventCallback&& callback) {
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  Slot& s = slots_[slot];
  s.live = true;
  s.callback = std::move(callback);
  ++live_;
  const Entry entry{when.as_ticks(), next_seq_++, slot};
  if (Lane* lane = lane_for(entry.time_ticks)) {
    if (lane->size == 0) {
      nonempty_ |= 1u << static_cast<unsigned>(lane - lanes_.data());
    }
    lane->push_back(entry);
    ++lane_entries_;
    return EventId{slot, s.generation};
  }
  // Sift up: parents move down into the hole until the entry fits.
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0 && key(entry) < key(heap_[(hole - 1) / 4])) {
    heap_[hole] = heap_[(hole - 1) / 4];
    hole = (hole - 1) / 4;
  }
  heap_[hole] = entry;
  return EventId{slot, s.generation};
}

EventQueue::Lane* EventQueue::lane_for(std::int64_t time_ticks) {
  // Unsigned, so a time before the clock wraps instead of overflowing; it
  // only names a lane.
  const std::uint64_t delay = static_cast<std::uint64_t>(time_ticks) -
                              static_cast<std::uint64_t>(clock_);
  for (std::size_t i = 0; i < claimed_; ++i) {
    Lane& lane = lanes_[i];
    if (lane.delay != delay) continue;
    // The tail check keeps the lane sorted: the new entry's sequence number
    // is the largest yet, so its key is greater than the tail's exactly
    // when its time is not less. It fails only after the clock went back,
    // which takes an event scheduled before the clock; the kernel never
    // schedules one.
    return lane.size == 0 || lane.back().time_ticks <= time_ticks ? &lane
                                                                   : nullptr;
  }
  if (claimed_ == kLanes) return nullptr;
  bool seen = false;
  for (const std::uint64_t recent : recent_) seen |= recent == delay;
  recent_[recent_next_] = delay;
  recent_next_ = (recent_next_ + 1) % kHistory;
  if (!seen) return nullptr;
  Lane& lane = lanes_[claimed_++];
  lane.delay = delay;
  return &lane;
}

void EventQueue::Lane::push_back(const Entry& entry) {
  if (size == ring.size()) {
    // Unroll into a ring twice as large, oldest first.
    std::vector<Entry> grown(std::max<std::size_t>(16, 2 * ring.size()));
    for (std::size_t i = 0; i < size; ++i) {
      grown[i] = ring[(head + i) & (ring.size() - 1)];
    }
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + size) & (ring.size() - 1)] = entry;
  ++size;
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  Slot& s = slots_[id.slot];
  s.live = false;
  s.callback = nullptr;
  // The entry stays, and so does its slot until the entry is dropped, so
  // no heap or lane entry ever refers to a reused slot.
  --live_;
  if (heap_.size() + lane_entries_ - live_ > live_) purge();
  return true;
}

std::optional<EventQueue::ReadyEvent> EventQueue::pop() {
  Entry entry{};
  if (nonempty_ == 0) {
    // Every lane is empty, so this is the heap's own pop.
    drop_dead_top();
    if (heap_.empty()) return std::nullopt;
    entry = heap_.front();
    remove_top();
  } else {
    const int source = least();
    if (source == kNone) return std::nullopt;
    entry = front(source);
    remove_front(source);
  }
  clock_ = entry.time_ticks;
  Slot& s = slots_[entry.slot];
  assert(s.live);
  ReadyEvent ready{TimePoint::at_ticks(entry.time_ticks),
                   std::move(s.callback)};
  s.live = false;
  s.callback = nullptr;
  retire_slot(entry.slot);
  --live_;
  return ready;
}

int EventQueue::least() {
  drop_dead_top();
  int source = heap_.empty() ? kNone : kHeap;
  Key best = source == kHeap ? key(heap_.front()) : Key{};
  for (unsigned bits = nonempty_; bits != 0; bits &= bits - 1) {
    const int index = std::countr_zero(bits);
    const Lane& lane = lanes_[index];
    // Dead heads go as they are met, so a lane of cancelled entries empties
    // and pop is back on the heap's own path.
    while (lane.size != 0 && !slots_[lane.front().slot].live) {
      retire_slot(lane.front().slot);
      remove_front(index);
    }
    if (lane.size == 0) continue;
    const Key k = key(lane.front());
    if (source == kNone || k < best) {
      source = index;
      best = k;
    }
  }
  return source;
}

void EventQueue::remove_front(int source) {
  if (source == kHeap) {
    remove_top();
    return;
  }
  Lane& lane = lanes_[source];
  lane.pop_front();
  --lane_entries_;
  if (lane.size == 0) nonempty_ &= ~(1u << source);
}

void EventQueue::sift_down(std::size_t hole, Entry entry) {
  const Key k = key(entry);
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = 4 * hole + 1;
    if (first >= n) break;
    // Three compares feed masks and conditional moves, not branches. A
    // missing child repeats the last entry, a child to its left, so it
    // never wins.
    const Key k0 = key(heap_[first]);
    const Key k1 = key(heap_[std::min(first + 1, n - 1)]);
    const Key k2 = key(heap_[std::min(first + 2, n - 1)]);
    const Key k3 = key(heap_[std::min(first + 3, n - 1)]);
    const bool left_odd = k1 < k0;
    const bool right_odd = k3 < k2;
    const Key left = left_odd ? k1 : k0;
    const Key right = right_odd ? k3 : k2;
    const bool go_right = right < left;
    const std::size_t left_at = first + left_odd;
    const std::size_t right_at = first + 2 + right_odd;
    const std::size_t best =
        left_at ^ ((left_at ^ right_at) & -std::size_t{go_right});
    if (k < (go_right ? right : left)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = entry;
}

void EventQueue::remove_top() {
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last);
}

void EventQueue::drop_dead_top() {
  while (!heap_.empty() && !slots_[heap_.front().slot].live) {
    retire_slot(heap_.front().slot);
    remove_top();
  }
}

void EventQueue::purge() {
  std::erase_if(heap_, [this](const Entry& entry) {
    if (slots_[entry.slot].live) return false;
    retire_slot(entry.slot);
    return true;
  });
  // Floyd's heap construction: sift every internal node down, last first.
  for (std::size_t i = (heap_.size() + 2) / 4; i-- > 0;) {
    sift_down(i, heap_[i]);
  }
  lane_entries_ = 0;
  // Each lane keeps its live entries in order, packed from its head.
  for (std::size_t i = 0; i < claimed_; ++i) {
    Lane& lane = lanes_[i];
    const std::size_t mask = lane.ring.size() - 1;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < lane.size; ++k) {
      const Entry entry = lane.ring[(lane.head + k) & mask];
      if (slots_[entry.slot].live) {
        lane.ring[(lane.head + kept++) & mask] = entry;
      } else {
        retire_slot(entry.slot);
      }
    }
    lane.size = kept;
    if (kept == 0) nonempty_ &= ~(1u << i);
    lane_entries_ += kept;
  }
}

}  // namespace rtdb::sim
