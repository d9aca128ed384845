// BatchChannel: coalesced same-destination control frames over the
// reliable channel. Disabled (zero window) it must be an exact passthrough
// registering no frame handler; enabled it must coalesce a window's sends
// into one frame per pathway, preserve enqueue order, flush on demand
// before a blocking reply, and lose its queues with the site on a crash.

#include <gtest/gtest.h>

#include <vector>

#include "net/batch.hpp"
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
struct PongMsg {
  int value = 0;
};

struct Pair {
  sim::Kernel k;
  Network net{k, 2, tu(2)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  ReliableChannel ch0;
  ReliableChannel ch1;
  BatchChannel b0;
  BatchChannel b1;
  std::vector<int> pings;
  std::vector<int> pongs;

  explicit Pair(Duration window, bool reliable_enabled = false)
      : ch0(ms0, ReliableChannel::Options{reliable_enabled, 5, tu(8)},
            sim::RandomStream{7}.fork(0xCA00)),
        ch1(ms1, ReliableChannel::Options{reliable_enabled, 5, tu(8)},
            sim::RandomStream{7}.fork(0xCA01)),
        b0(ms0, &ch0, BatchChannel::Options{window}),
        b1(ms1, &ch1, BatchChannel::Options{window}) {
    ms1.on<PingMsg>([this](SiteId, PingMsg m) { pings.push_back(m.value); });
    ms1.on<PongMsg>([this](SiteId, PongMsg m) { pongs.push_back(m.value); });
    ms0.start();
    ms1.start();
  }
};

TEST(BatchChannelTest, ZeroWindowIsAnExactPassthrough) {
  Pair p{Duration::zero()};
  EXPECT_FALSE(p.b0.enabled());
  for (int i = 1; i <= 3; ++i) p.b0.send(1, PingMsg{i});
  p.b0.send_raw(1, PongMsg{9});
  p.k.run();
  EXPECT_EQ(p.pings, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(p.pongs, (std::vector<int>{9}));
  // Each payload crossed the network on its own — no frames, no counters.
  EXPECT_EQ(p.net.messages_sent(), 4u);
  EXPECT_EQ(p.b0.batched_messages(), 0u);
  EXPECT_EQ(p.b0.batch_flushes(), 0u);
}

TEST(BatchChannelTest, WindowCoalescesSameDestinationSends) {
  Pair p{tu(1)};
  for (int i = 1; i <= 5; ++i) p.b0.send(1, PingMsg{i});
  p.k.run();
  // Five payloads, one frame, order preserved.
  EXPECT_EQ(p.pings, (std::vector<int>{1, 2, 3, 4, 5}));
  EXPECT_EQ(p.net.messages_sent(), 1u);
  EXPECT_EQ(p.b0.batched_messages(), 5u);
  EXPECT_EQ(p.b0.batch_flushes(), 1u);
}

TEST(BatchChannelTest, ReliableAndRawPathwaysFrameSeparately) {
  Pair p{tu(1), /*reliable_enabled=*/true};
  p.b0.send(1, PingMsg{1});
  p.b0.send_raw(1, PongMsg{2});
  p.b0.send(1, PingMsg{3});
  p.k.run();
  EXPECT_EQ(p.pings, (std::vector<int>{1, 3}));
  EXPECT_EQ(p.pongs, (std::vector<int>{2}));
  // One reliable frame (wrapped + acked) and one raw frame: the raw
  // pathway must not inherit the reliable frame's retransmission state.
  EXPECT_EQ(p.b0.batched_messages(), 3u);
  EXPECT_EQ(p.b0.batch_flushes(), 2u);
  EXPECT_EQ(p.net.messages_sent(), 3u);  // reliable frame + ack + raw frame
}

TEST(BatchChannelTest, FlushSendsTheWindowEarly) {
  Pair p{tu(50)};
  p.b0.send(1, PingMsg{1});
  p.b0.send(1, PingMsg{2});
  p.b0.flush(1);
  p.k.run_until(sim::TimePoint::origin() + tu(10));
  // Delivered long before the 50tu window would have expired.
  EXPECT_EQ(p.pings, (std::vector<int>{1, 2}));
  EXPECT_EQ(p.b0.batch_flushes(), 1u);
}

TEST(BatchChannelTest, IntraSiteSendsBypassTheWindow) {
  Pair p{tu(50)};
  std::vector<int> local;
  p.ms0.on<PongMsg>([&local](SiteId, PongMsg m) { local.push_back(m.value); });
  p.b0.send(0, PongMsg{7});
  p.k.run();
  EXPECT_EQ(local, (std::vector<int>{7}));
  EXPECT_EQ(p.b0.batched_messages(), 0u);
}

TEST(BatchChannelTest, CrashDropsQueuedFrames) {
  Pair p{tu(50)};
  p.b0.send(1, PingMsg{1});
  p.b0.on_crash();
  p.k.run();
  // The queued frame was volatile state; nothing arrives, nothing flushes.
  EXPECT_TRUE(p.pings.empty());
  EXPECT_EQ(p.b0.batch_flushes(), 0u);
}

TEST(BatchChannelTest, DeterministicReplay) {
  auto run = [](std::vector<int>* out) {
    Pair p{tu(2)};
    for (int i = 0; i < 8; ++i) {
      p.b0.send(1, PingMsg{i});
      if (i % 3 == 0) p.b0.send_raw(1, PongMsg{i});
    }
    p.k.run();
    *out = p.pings;
    out->insert(out->end(), p.pongs.begin(), p.pongs.end());
  };
  std::vector<int> a, b;
  run(&a);
  run(&b);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rtdb::net
