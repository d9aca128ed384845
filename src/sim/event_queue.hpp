#pragma once

#include <array>
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
// (time, seq, slot) entries plus four FIFO delay lanes, with the callbacks
// in generation-checked slots beside them. Four children per node halve a
// binary heap's depth, and three branch-free compares of one 128-bit key
// pick the smallest of the four.
//
// A lane holds the events of one delay, the event time minus the clock
// (the time of the last pop). Most events have one of a few delays (service
// times, link delay, same-instant wakes), and since the clock never goes
// back and sequence numbers only rise, such a stream arrives already in
// order: an event joins its delay's lane when its key is greater than the
// lane's tail key, and goes to the heap otherwise. So each lane is sorted,
// and pop takes the least of the heap top and the lane heads. A free lane
// goes to any delay seen among the last kHistory schedules, and keeps that
// delay for the life of the queue.
//
// Ordering contract (what the simulator's determinism rests on): events pop
// in strictly ascending (time, schedule-sequence) order, so equal times fire
// in schedule order (FIFO). The key is unique, so neither the heap's shape
// nor which lane an event took can change the pop order.
//
// Cancellation is O(1): the slot is marked dead, and its entry is dropped
// when it reaches the front, or in one purge pass once dead entries
// outnumber live ones.
class EventQueue {
 public:
  EventId schedule(TimePoint when, EventCallback&& callback);

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
    const int source = least();
    if (source == kNone) return std::nullopt;
    return TimePoint::at_ticks(front(source).time_ticks);
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
  // A FIFO of one delay's entries in a power-of-two ring, oldest at head.
  struct Lane {
    std::uint64_t delay = 0;
    std::vector<Entry> ring;
    std::size_t head = 0;
    std::size_t size = 0;

    const Entry& front() const { return ring[head]; }
    const Entry& back() const {
      return ring[(head + size - 1) & (ring.size() - 1)];
    }
    void push_back(const Entry& entry);
    void pop_front() {
      head = (head + 1) & (ring.size() - 1);
      --size;
    }
  };

  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kHistory = 4;
  // Sources of the front entry: the heap, or the lane of that index.
  static constexpr int kHeap = -1;
  static constexpr int kNone = -2;

  // (time, seq) as one unsigned number; flipping the sign bit maps signed
  // time order onto unsigned order.
  using Key = unsigned __int128;
  static Key key(const Entry& entry) {
    const auto time = static_cast<std::uint64_t>(entry.time_ticks) ^
                      (std::uint64_t{1} << 63);
    return (Key{time} << 64) | entry.seq;
  }

  const Entry& front(int source) const {
    return source == kHeap ? heap_.front() : lanes_[source].front();
  }
  void retire_slot(std::uint32_t slot) {
    ++slots_[slot].generation;
    free_slots_.push_back(slot);
  }
  // The lane that takes a new entry at this time, or null when it goes to
  // the heap.
  Lane* lane_for(std::int64_t time_ticks);
  void sift_down(std::size_t hole, Entry entry);
  void remove_top();
  void remove_front(int source);
  void drop_dead_top();
  // Drops dead entries from the heap top and the lane heads, and returns the
  // source of the least live entry, or kNone when no live entry is left.
  int least();
  // Drops every dead entry and re-heapifies what is left.
  void purge();

  std::vector<Entry> heap_;  // entries held, including not-yet-dropped dead
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;          // non-cancelled events
  std::int64_t clock_ = 0;        // time of the last pop, in ticks
  unsigned nonempty_ = 0;         // bit i is set while lanes_[i] holds entries
  std::size_t claimed_ = 0;       // lanes_[0, claimed_) have their delay
  std::size_t lane_entries_ = 0;  // entries in all lanes, dead included
  // Delays of the last kHistory schedules; starting at zero, the first
  // same-instant event claims a lane.
  std::array<std::uint64_t, kHistory> recent_{};
  std::size_t recent_next_ = 0;
  std::array<Lane, kLanes> lanes_{};
};

}  // namespace rtdb::sim
