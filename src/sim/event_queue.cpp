#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>

namespace rtdb::sim {

EventId EventQueue::schedule(TimePoint when, EventCallback callback) {
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
  // Sift up: parents move down into the hole until the entry fits.
  const Entry entry{when.as_ticks(), next_seq_++, slot};
  std::size_t hole = heap_.size();
  heap_.emplace_back();
  while (hole > 0 && key(entry) < key(heap_[(hole - 1) / 4])) {
    heap_[hole] = heap_[(hole - 1) / 4];
    hole = (hole - 1) / 4;
  }
  heap_[hole] = entry;
  return EventId{slot, s.generation};
}

bool EventQueue::cancel(EventId id) {
  if (!pending(id)) return false;
  Slot& s = slots_[id.slot];
  s.live = false;
  s.callback = nullptr;
  // The entry stays, and so does its slot until the entry is dropped, so
  // the heap never refers to a reused slot.
  --live_;
  if (heap_.size() - live_ > live_) purge();
  return true;
}

std::optional<EventQueue::ReadyEvent> EventQueue::pop() {
  drop_dead_top();
  if (heap_.empty()) return std::nullopt;
  const Entry entry = heap_.front();
  remove_top();
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
}

}  // namespace rtdb::sim
