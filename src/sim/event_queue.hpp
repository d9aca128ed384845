#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace rtdb::sim {

using EventCallback = std::function<void()>;

// Handle to a scheduled event; generation-checked so a stale id (event
// already fired or cancelled, slot reused) is detected and ignored.
struct EventId {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t generation = 0;

  bool valid() const { return slot != kInvalidSlot; }
  friend bool operator==(EventId, EventId) = default;
};

// Cancellable time-ordered event queue: an implicit 4-ary min-heap of flat
// (time, seq, slot) entries, with the callbacks in generation-checked slots
// beside it. Four children per node halve a binary heap's depth, and three
// branch-free compares of one 128-bit key pick the smallest of the four.
//
// Ordering contract (what the simulator's determinism rests on): events pop
// in strictly ascending (time, schedule-sequence) order, so equal times fire
// in schedule order (FIFO). The key is unique, so the heap's shape cannot
// change the pop order.
//
// Cancellation is O(1): the slot is marked dead, and its entry is dropped
// when it reaches the top, or in one purge pass once dead entries outnumber
// live ones.
class EventQueue {
 public:
  EventId schedule(TimePoint when, EventCallback callback);

  // Returns true if the event was still pending and is now cancelled.
  bool cancel(EventId id);

  bool pending(EventId id) const {
    return id.valid() && id.slot < slots_.size() &&
           slots_[id.slot].generation == id.generation && slots_[id.slot].live;
  }

  // Number of live (non-cancelled) events.
  std::size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }

  // Earliest live event time; nullopt when empty.
  std::optional<TimePoint> next_time() {
    drop_dead_top();
    if (heap_.empty()) return std::nullopt;
    return TimePoint::at_ticks(heap_.front().time_ticks);
  }

  struct ReadyEvent {
    TimePoint time;
    EventCallback callback;
  };
  // Removes and returns the earliest live event; nullopt when empty.
  std::optional<ReadyEvent> pop();

 private:
  // Flat and trivially copyable, so a sift is a plain copy.
  struct Entry {
    std::int64_t time_ticks;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Slot {
    std::uint32_t generation = 0;
    bool live = false;
    EventCallback callback{};
  };

  // (time, seq) as one unsigned number; flipping the sign bit maps signed
  // time order onto unsigned order.
  using Key = unsigned __int128;
  static Key key(const Entry& entry) {
    const auto time = static_cast<std::uint64_t>(entry.time_ticks) ^
                      (std::uint64_t{1} << 63);
    return (Key{time} << 64) | entry.seq;
  }

  void retire_slot(std::uint32_t slot) {
    ++slots_[slot].generation;
    free_slots_.push_back(slot);
  }
  void sift_down(std::size_t hole, Entry entry);
  void remove_top();
  void drop_dead_top();
  // Drops every dead entry and re-heapifies what is left.
  void purge();

  std::vector<Entry> heap_;  // entries held, including not-yet-dropped dead
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;  // non-cancelled events
};

}  // namespace rtdb::sim
