// ReliableChannel: acked, retransmitting delivery of control messages over
// the at-most-once network. Disabled it must be a verbatim passthrough;
// enabled it must survive drops, suppress duplicates, bound its retries,
// and draw every backoff from its own stream (deterministic replay).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/message_server.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/kernel.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

struct PingMsg {
  int value = 0;
};

struct Pair {
  sim::Kernel k;
  Network net{k, 2, tu(2)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  ReliableChannel ch0;
  ReliableChannel ch1;
  std::vector<int> got;

  explicit Pair(bool enabled, std::uint64_t seed = 7)
      : ch0(ms0, ReliableChannel::Options{enabled, 5, tu(8)},
            sim::RandomStream{seed}.fork(0xCA00)),
        ch1(ms1, ReliableChannel::Options{enabled, 5, tu(8)},
            sim::RandomStream{seed}.fork(0xCA01)) {
    ms1.on<PingMsg>([this](SiteId, PingMsg m) { got.push_back(m.value); });
    ms0.start();
    ms1.start();
  }
};

TEST(ReliableChannelTest, DisabledChannelIsAVerbatimPassthrough) {
  Pair p{false};
  p.ch0.send(1, PingMsg{42});
  p.k.run();
  ASSERT_EQ(p.got.size(), 1u);
  EXPECT_EQ(p.got[0], 42);
  // No wrapping, no ack traffic, nothing in flight.
  EXPECT_EQ(p.net.messages_sent(), 1u);
  EXPECT_EQ(p.ch0.in_flight(), 0u);
  EXPECT_EQ(p.ch0.retransmissions(), 0u);
}

TEST(ReliableChannelTest, EnabledChannelAcksEverySend) {
  Pair p{true};
  for (int i = 1; i <= 3; ++i) p.ch0.send(1, PingMsg{i});
  p.k.run();
  EXPECT_EQ(p.got, (std::vector<int>{1, 2, 3}));
  // Each wrapped message plus its ack crossed the network exactly once.
  EXPECT_EQ(p.net.messages_sent(), 6u);
  EXPECT_EQ(p.ch0.in_flight(), 0u);
  EXPECT_EQ(p.ch0.retransmissions(), 0u);
  EXPECT_EQ(p.ch1.duplicates_suppressed(), 0u);
}

TEST(ReliableChannelTest, RetransmissionDeliversThroughDrops) {
  Pair p{true};
  FaultSpec spec;
  spec.drop_rate = 0.3;
  p.net.install_faults(spec, sim::RandomStream{11}.fork(0xFA));
  for (int i = 0; i < 20; ++i) p.ch0.send(1, PingMsg{i});
  p.k.run();
  // Every payload arrived exactly once despite the 30% loss.
  std::vector<int> sorted = p.got;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expected(20);
  for (int i = 0; i < 20; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(sorted, expected);
  EXPECT_GT(p.ch0.retransmissions(), 0u);
  EXPECT_GT(p.ch0.backoff_wait(), Duration::zero());
  EXPECT_EQ(p.ch0.in_flight(), 0u);  // acked or given up, never leaked
}

TEST(ReliableChannelTest, DuplicatedDeliveriesAreSuppressed) {
  Pair p{true};
  FaultSpec spec;
  spec.dup_rate = 1.0;  // the network delivers every message twice
  p.net.install_faults(spec, sim::RandomStream{3}.fork(0xFA));
  for (int i = 0; i < 5; ++i) p.ch0.send(1, PingMsg{i});
  p.k.run();
  EXPECT_EQ(p.got.size(), 5u);  // payloads delivered exactly once
  EXPECT_GT(p.ch1.duplicates_suppressed(), 0u);
}

TEST(ReliableChannelTest, GivesUpAfterTheRetryBudget) {
  Pair p{true};
  p.net.set_operational(1, false);
  p.ch0.send(1, PingMsg{1});
  p.k.run();
  EXPECT_TRUE(p.got.empty());
  EXPECT_EQ(p.ch0.retransmissions(), 5u);  // retransmit_max
  EXPECT_EQ(p.ch0.gave_up(), 1u);
  EXPECT_EQ(p.ch0.in_flight(), 0u);
  EXPECT_GT(p.ch0.backoff_wait(), Duration::zero());
}

TEST(ReliableChannelTest, CrashClearsPendingAndTimers) {
  Pair p{true};
  p.net.set_operational(1, false);
  p.ch0.send(1, PingMsg{1});
  EXPECT_EQ(p.ch0.in_flight(), 1u);
  p.k.schedule_in(tu(1), [&p] { p.ch0.on_crash(); });
  p.k.run();  // drains: the retransmission timer was cancelled
  EXPECT_EQ(p.ch0.in_flight(), 0u);
  EXPECT_EQ(p.ch0.retransmissions(), 0u);
  EXPECT_EQ(p.ch0.gave_up(), 0u);
}

TEST(ReliableChannelTest, BackoffSaturatesAtTheCapInsteadOfOverflowing) {
  // Regression: with a large retry budget, doubling the backoff per attempt
  // overflows the int64 tick count around attempt 60 and schedules a
  // negative delay. The wait must saturate at backoff_max instead.
  sim::Kernel k;
  Network net{k, 2, tu(2)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  constexpr int kRetries = 80;  // far past the overflow point
  ReliableChannel ch0{ms0,
                      ReliableChannel::Options{true, kRetries, tu(8), tu(256)},
                      sim::RandomStream{7}.fork(0xCA00)};
  ms0.start();
  ms1.start();
  net.set_operational(1, false);
  ch0.send(1, PingMsg{1});
  k.run();  // terminates: every armed delay was positive and finite
  EXPECT_EQ(ch0.retransmissions(), static_cast<std::uint64_t>(kRetries));
  EXPECT_EQ(ch0.gave_up(), 1u);
  EXPECT_EQ(ch0.in_flight(), 0u);
  // Every wait is at most backoff_max plus one base of jitter.
  const Duration bound = (tu(256) + tu(8)) * (kRetries + 1);
  EXPECT_GT(ch0.backoff_wait(), Duration::zero());
  EXPECT_LE(ch0.backoff_wait(), bound);
}

TEST(ReliableChannelTest, RetransmissionScheduleIsAPureFunctionOfTheSeed) {
  auto run = [] {
    Pair p{true, 21};
    FaultSpec spec;
    spec.drop_rate = 0.4;
    p.net.install_faults(spec, sim::RandomStream{21}.fork(0xFA));
    for (int i = 0; i < 10; ++i) p.ch0.send(1, PingMsg{i});
    p.k.run();
    return std::tuple{p.ch0.retransmissions(), p.ch0.backoff_wait(),
                      p.ch0.gave_up(), p.got};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace rtdb::net
