#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sim/random.hpp"

namespace rtdb::sim {
namespace {

TimePoint at(std::int64_t units) {
  return TimePoint::origin() + Duration::units(units);
}

// Pops everything and asserts that pop times never decrease.
std::vector<TimePoint> drain(EventQueue& q) {
  std::vector<TimePoint> times;
  while (auto ev = q.pop()) {
    if (!times.empty()) {
      EXPECT_GE(ev->time, times.back());
    }
    times.push_back(ev->time);
    ev->callback();
  }
  EXPECT_TRUE(q.empty());
  return times;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(30), [&] { order.push_back(3); });
  q.schedule(at(10), [&] { order.push_back(1); });
  q.schedule(at(20), [&] { order.push_back(2); });
  while (auto ev = q.pop()) ev->callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(at(5), [&order, i] { order.push_back(i); });
  }
  while (auto ev = q.pop()) ev->callback();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventId id = q.schedule(at(1), [&] { fired = true; });
  EXPECT_TRUE(q.pending(id));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pending(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel is a no-op
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, SizeCountsLiveEventsOnly) {
  EventQueue q;
  EventId a = q.schedule(at(1), [] {});
  q.schedule(at(2), [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId a = q.schedule(at(1), [] {});
  q.schedule(at(5), [] {});
  q.cancel(a);
  ASSERT_TRUE(q.next_time().has_value());
  EXPECT_EQ(*q.next_time(), at(5));
}

TEST(EventQueueTest, StaleIdAfterPopIsRejected) {
  EventQueue q;
  EventId a = q.schedule(at(1), [] {});
  auto ev = q.pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_FALSE(q.pending(a));
  EXPECT_FALSE(q.cancel(a));
  // Slot reuse must not resurrect the old id.
  EventId b = q.schedule(at(2), [] {});
  EXPECT_FALSE(q.pending(a));
  EXPECT_TRUE(q.pending(b));
}

TEST(EventQueueTest, InvalidIdIsHarmless) {
  EventQueue q;
  EXPECT_FALSE(q.pending(EventId{}));
  EXPECT_FALSE(q.cancel(EventId{}));
}

TEST(EventQueueTest, ManyInterleavedSchedulesAndCancels) {
  EventQueue q;
  std::vector<EventId> ids;
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(q.schedule(at(i % 17), [&] { ++fired; }));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  std::int64_t last = -1;
  while (auto ev = q.pop()) {
    EXPECT_GE(ev->time.as_ticks(), last);
    last = ev->time.as_ticks();
    ev->callback();
  }
  EXPECT_EQ(fired, 500);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, OrdersScrambledTimesAcrossPowerOfTwoEdges) {
  EventQueue q;
  // Times on both sides of 1023/1024, 65535/65536 and 131071 ticks,
  // scheduled in a scrambled but deterministic order.
  std::vector<std::int64_t> times;
  for (std::int64_t base : {0, 1023, 1024, 1025, 65535, 65536, 131071}) {
    for (std::int64_t delta : {0, 1, 511, 512}) {
      times.push_back(base + delta);
    }
  }
  std::vector<std::int64_t> scrambled;
  for (std::size_t i = 0; i < times.size(); ++i) {
    scrambled.push_back(times[(i * 17) % times.size()]);
  }
  std::vector<std::int64_t> fired;
  for (std::int64_t t : scrambled) {
    q.schedule(TimePoint::at_ticks(t), [&fired, t] { fired.push_back(t); });
  }
  drain(q);
  std::vector<std::int64_t> expected = scrambled;
  std::stable_sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
}

TEST(EventQueueTest, LaterEventScheduledFirstPopsSecond) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(at(100 + 65536), [&] { order.push_back(2); });
  q.schedule(at(100), [&] { order.push_back(1); });
  drain(q);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, EqualTimesStayFifoAmongSpreadEvents) {
  EventQueue q;
  // 300 equal-time events interleaved with 600 spread ones, before and
  // after them: the equal-time group still fires in schedule order.
  std::vector<int> order;
  for (int i = 0; i < 300; ++i) {
    q.schedule(at(5000), [&order, i] { order.push_back(i); });
    q.schedule(at(10000 + i * 77), [] {});
    q.schedule(at(i * 13), [] {});
  }
  EXPECT_EQ(drain(q).size(), 900u);
  std::vector<int> expected;
  for (int i = 0; i < 300; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, ThousandSpreadEventsDrainInOrder) {
  EventQueue q;
  for (int i = 0; i < 1000; ++i) q.schedule(at(i * 37), [] {});
  EXPECT_EQ(q.size(), 1000u);
  EXPECT_EQ(drain(q).size(), 1000u);
}

TEST(EventQueueTest, CancelledHalfStaysCancelledAsQueueGrows) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.schedule(at(i * 37), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  EXPECT_EQ(q.size(), 100u);
  // Later schedules reuse no slot of a dead entry still in the heap, and
  // the cancelled events are dropped, not resurrected.
  for (int i = 0; i < 400; ++i) {
    q.schedule(at(10000 + i * 37), [] {});
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(q.pending(ids[i]), i % 2 == 1);
  }
  EXPECT_EQ(drain(q).size(), 500u);
}

TEST(EventQueueTest, WidelySpacedSingleEventsThenFifoBurst) {
  EventQueue q;
  // One pending event at a time, each 2^20 ticks past the previous.
  std::int64_t t = 0;
  int fired = 0;
  for (int i = 0; i < 6000; ++i) {
    t += std::int64_t{1} << 20;
    q.schedule(TimePoint::at_ticks(t), [&fired] { ++fired; });
    auto ev = q.pop();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->time, TimePoint::at_ticks(t));
    ev->callback();
  }
  EXPECT_EQ(fired, 6000);
  // Equal times after that stay FIFO behind an earlier straggler.
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(TimePoint::at_ticks(t + 100),
               [&order, i] { order.push_back(i); });
  }
  q.schedule(TimePoint::at_ticks(t + 50), [&order] { order.push_back(-1); });
  drain(q);
  std::vector<int> expected{-1};
  for (int i = 0; i < 16; ++i) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

TEST(EventQueueTest, MatchesOrderedMapReference) {
  // Random schedules (many equal times, gaps up to 2^40 ticks), cancels
  // and pops, checked op by op against a map keyed by (time, schedule
  // order). Rounds lean in turn to scheduling, cancelling and popping; a
  // cancel-leaning round cancels more than half of what is pending with
  // few pops in between, so dead entries outnumber live ones and the purge
  // pass runs.
  using Key = std::pair<std::int64_t, std::uint64_t>;
  RandomStream rng{20261018};
  EventQueue q;
  std::map<Key, EventId> reference;
  std::vector<EventId> scheduled;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::uint64_t fired = 0;
  for (int round = 0; round < 60; ++round) {
    for (int step = 0; step < 500; ++step) {
      const std::int64_t roll = rng.uniform_int(0, 9);
      const std::int64_t action = roll < 6 ? round % 3 : roll % 3;
      if (action == 0 || reference.empty()) {
        const std::int64_t gap =
            rng.uniform_int(0, 3) == 0
                ? 0
                : rng.uniform_int(0, std::int64_t{1} << rng.uniform_int(0, 40));
        const Key key{now + gap, seq++};
        const EventId id =
            q.schedule(TimePoint::at_ticks(key.first),
                       [&fired, s = key.second] { fired = s; });
        reference.emplace(key, id);
        scheduled.push_back(id);
      } else if (action == 1) {
        // Mostly a pending event; sometimes any earlier id, maybe stale.
        const auto pick = [&rng](std::size_t n) {
          return static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        };
        EventId id;
        std::size_t erased = 0;
        if (rng.uniform_int(0, 3) != 0) {
          const auto it = std::next(
              reference.begin(),
              static_cast<std::ptrdiff_t>(pick(reference.size())));
          id = it->second;
          reference.erase(it);
          erased = 1;
        } else {
          id = scheduled[pick(scheduled.size())];
          erased = std::erase_if(
              reference, [id](const auto& kv) { return kv.second == id; });
        }
        EXPECT_EQ(q.pending(id), erased == 1);
        EXPECT_EQ(q.cancel(id), erased == 1);
        EXPECT_FALSE(q.pending(id));
      } else {
        const auto expected = reference.begin();
        ASSERT_EQ(q.next_time(), TimePoint::at_ticks(expected->first.first));
        auto ev = q.pop();
        ASSERT_TRUE(ev.has_value());
        ev->callback();
        ASSERT_EQ(fired, expected->first.second);
        now = expected->first.first;
        reference.erase(expected);
      }
      ASSERT_EQ(q.size(), reference.size());
    }
  }
  while (!reference.empty()) {
    auto ev = q.pop();
    ASSERT_TRUE(ev.has_value());
    ev->callback();
    EXPECT_EQ(fired, reference.begin()->first.second);
    reference.erase(reference.begin());
  }
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(EventQueueTest, DelayLanesMatchOrderedMapReference) {
  // Three constant-delay streams, 0, 1 and 2 units after the last pop (the
  // traffic the lanes serve), interleaved with random delays (the heap's),
  // checked op by op against a map keyed by (time, schedule order). Cancels
  // hit a stream's earliest pending event (a lane head), its middle one (a
  // lane middle) and random-delay events (heap entries); cancel-leaning
  // rounds cancel more than half of what is pending, so the purge pass
  // runs. Some random events lie before the last pop, which the queue
  // allows: popping one moves the clock back, so a stream's next event can
  // be older than its lane's tail.
  using Key = std::pair<std::int64_t, std::uint64_t>;
  constexpr int kRandom = 3;  // streams are tagged 0-2, by delay in units
  struct Pending {
    EventId id;
    int tag;
  };
  RandomStream rng{20261019};
  EventQueue q;
  std::map<Key, Pending> reference;
  std::uint64_t seq = 0;
  std::int64_t now = 0;
  std::uint64_t fired = 0;
  const auto schedule = [&](std::int64_t time, int tag) {
    const Key key{time, seq++};
    const EventId id = q.schedule(TimePoint::at_ticks(time),
                                  [&fired, s = key.second] { fired = s; });
    reference.emplace(key, Pending{id, tag});
  };
  const auto pop_and_check = [&] {
    const Key expected = reference.begin()->first;
    reference.erase(reference.begin());
    now = expected.first;
    ASSERT_EQ(q.next_time(), TimePoint::at_ticks(expected.first));
    auto ev = q.pop();
    ASSERT_TRUE(ev.has_value());
    ev->callback();
    ASSERT_EQ(fired, expected.second);
  };
  for (int round = 0; round < 45; ++round) {
    for (int step = 0; step < 400; ++step) {
      const std::int64_t roll = rng.uniform_int(0, 9);
      const std::int64_t action = roll < 6 ? round % 3 : roll % 3;
      if (action == 0 || reference.empty()) {
        const std::int64_t which = rng.uniform_int(0, 5);
        if (which < 3) {
          schedule(now + which * kTicksPerUnit, static_cast<int>(which));
          continue;
        }
        // Random gaps miss the streams' whole-unit delays.
        std::int64_t gap = which == 3
                               ? rng.uniform_int(1, 4 * kTicksPerUnit)
                               : rng.uniform_int(1, std::int64_t{1} << 30);
        if (which == 5 && rng.uniform_int(0, 2) == 0) {
          gap = -(gap % (3 * kTicksPerUnit));
        }
        if (gap % kTicksPerUnit == 0) ++gap;
        schedule(now + gap, kRandom);
      } else if (action == 1) {
        const std::int64_t kind = rng.uniform_int(0, 2);
        const int tag =
            kind == 2 ? kRandom : static_cast<int>(rng.uniform_int(0, 2));
        std::vector<Key> keys;
        for (const auto& [key, pending] : reference) {
          if (pending.tag == tag) keys.push_back(key);
        }
        if (keys.empty()) continue;
        const std::size_t index =
            kind == 0   ? 0
            : kind == 1 ? keys.size() / 2
                        : static_cast<std::size_t>(rng.uniform_int(
                              0, static_cast<std::int64_t>(keys.size()) - 1));
        const EventId id = reference.at(keys[index]).id;
        reference.erase(keys[index]);
        EXPECT_TRUE(q.pending(id));
        EXPECT_TRUE(q.cancel(id));
        EXPECT_FALSE(q.pending(id));
      } else {
        pop_and_check();
      }
      ASSERT_FALSE(HasFatalFailure());
      ASSERT_EQ(q.size(), reference.size());
    }
  }
  while (!reference.empty() && !HasFatalFailure()) pop_and_check();
  EXPECT_EQ(q.pop(), std::nullopt);
}

}  // namespace
}  // namespace rtdb::sim
