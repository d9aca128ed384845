// net::Payload and the single dispatch table: values up to 48 bytes stay
// inline and bigger ones are boxed; copies are deep and moves empty the
// source; a type mismatch throws; tags are dense and distinct even when
// several threads name new types at once; and one handler registered on a
// site serves a payload whether it arrives directly, in a batch frame or
// in a reliable wrapper, with strays counted in MessageServer::unhandled().

#include "net/payload.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/failover.hpp"
#include "dist/global_ceiling.hpp"
#include "net/batch.hpp"
#include "net/message_server.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/kernel.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;

Duration tu(std::int64_t n) { return Duration::units(n); }

TEST(PayloadTest, SmallMessagesAreInlineAndBigOnesBoxed) {
  static_assert(sizeof(dist::HeartbeatMsg) <= Payload::kInlineSize);
  static_assert(sizeof(dist::RegisterTxnMsg) > Payload::kInlineSize);
  const Payload beat{dist::HeartbeatMsg{3, 1, 2}};
  EXPECT_TRUE(beat.stored_inline());
  EXPECT_EQ(beat.get<dist::HeartbeatMsg>().term, 3u);
  EXPECT_EQ(beat.get<dist::HeartbeatMsg>().shard, 2u);

  dist::RegisterTxnMsg registration;
  registration.txn = 42;
  registration.operations.push_back(cc::Operation{7, cc::LockMode::kWrite});
  const Payload boxed{registration};
  EXPECT_FALSE(boxed.stored_inline());
  EXPECT_EQ(boxed.get<dist::RegisterTxnMsg>().txn, 42u);
  EXPECT_EQ(boxed.get<dist::RegisterTxnMsg>().operations.size(), 1u);

  EXPECT_FALSE(Payload{}.has_value());
  EXPECT_FALSE(Payload{}.stored_inline());
  EXPECT_EQ(Payload{}.tag(), 0u);
}

TEST(PayloadTest, CopyLeavesTheSourceIntact) {
  // ReliableChannel keeps a copy of every payload for retransmission.
  dist::RegisterTxnMsg registration;
  registration.txn = 9;
  registration.operations.push_back(cc::Operation{1, cc::LockMode::kRead});
  Payload boxed{registration};
  Payload boxed_copy{boxed};
  boxed_copy.get<dist::RegisterTxnMsg>().operations.clear();
  EXPECT_EQ(boxed.get<dist::RegisterTxnMsg>().operations.size(), 1u);
  EXPECT_EQ(boxed_copy.get<dist::RegisterTxnMsg>().txn, 9u);

  Payload frame{BatchMsg{{Payload{dist::EndTxnMsg{5, 1, 0}}}}};
  Payload frame_copy;
  frame_copy = frame;
  ASSERT_EQ(frame.get<BatchMsg>().items.size(), 1u);
  ASSERT_EQ(frame_copy.get<BatchMsg>().items.size(), 1u);
  EXPECT_EQ(frame.get<BatchMsg>().items[0].get<dist::EndTxnMsg>().txn, 5u);
  EXPECT_EQ(frame_copy.get<BatchMsg>().items[0].get<dist::EndTxnMsg>().txn,
            5u);
}

TEST(PayloadTest, MoveLeavesTheSourceEmpty) {
  Payload inline_value{dist::EndTxnMsg{1, 2, 3}};
  Payload moved{std::move(inline_value)};
  EXPECT_FALSE(inline_value.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved.get<dist::EndTxnMsg>().attempt, 2u);

  Payload boxed{std::string(100, 'x')};
  Payload boxed_target{7};
  boxed_target = std::move(boxed);
  EXPECT_FALSE(boxed.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(boxed_target.get<std::string>().size(), 100u);

  // A non-trivial inline value (a frame's vector) is moved, not copied.
  Payload frame{BatchMsg{{Payload{1}, Payload{2}}}};
  const Payload* first_item = frame.get<BatchMsg>().items.data();
  Payload frame_target{std::move(frame)};
  EXPECT_FALSE(frame.has_value());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(frame_target.get<BatchMsg>().items.data(), first_item);
}

TEST(PayloadTest, TypeMismatchIsCaught) {
  Payload beat{dist::HeartbeatMsg{}};
  EXPECT_TRUE(beat.holds<dist::HeartbeatMsg>());
  EXPECT_FALSE(beat.holds<dist::ManagerElectedMsg>());
  // Same layout, different type: the tag tells them apart.
  EXPECT_THROW(beat.get<dist::ManagerElectedMsg>(), BadPayloadAccess);
  EXPECT_THROW(Payload{}.get<int>(), BadPayloadAccess);
  EXPECT_NE(msg_tag<dist::HeartbeatMsg>(), msg_tag<dist::ManagerElectedMsg>());
  EXPECT_EQ(beat.tag(), msg_tag<dist::HeartbeatMsg>());
}

template <int N>
struct ThreadProbeMsg {
  int value = N;
};

constexpr int kTypesPerThread = 8;
constexpr int kSharedBase = 1000;

// Builds a site of its own (as the sweep engine's workers build Systems),
// registers handlers for types ThreadProbeMsg<Base + i>, sends one of each
// to itself and returns their tags.
template <int Base, int... Ns>
std::vector<MsgTag> register_and_send(std::integer_sequence<int, Ns...>,
                                      int& received) {
  sim::Kernel kernel;
  Network network{kernel, 1};
  MessageServer server{kernel, network, 0};
  (server.on<ThreadProbeMsg<Base + Ns>>(
       [&received](SiteId, ThreadProbeMsg<Base + Ns> m) {
         received += m.value;
       }),
   ...);
  server.start();
  (server.send(0, ThreadProbeMsg<Base + Ns>{}), ...);
  kernel.run();
  return {msg_tag<ThreadProbeMsg<Base + Ns>>()...};
}

struct ThreadResult {
  std::vector<MsgTag> own;     // types only this thread names
  std::vector<MsgTag> shared;  // types every thread names
  int received = 0;
};

template <int T>
void name_types(ThreadResult& result) {
  using Types = std::make_integer_sequence<int, kTypesPerThread>;
  result.own =
      register_and_send<T * kTypesPerThread>(Types{}, result.received);
  result.shared = register_and_send<kSharedBase>(Types{}, result.received);
}

TEST(PayloadTest, TagsStayDistinctWhenThreadsNameTypesAtOnce) {
  constexpr std::array<void (*)(ThreadResult&), 4> kBodies = {
      &name_types<0>, &name_types<1>, &name_types<2>, &name_types<3>};
  std::latch start{kBodies.size()};
  std::array<ThreadResult, kBodies.size()> results;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kBodies.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      kBodies[t](results[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<MsgTag> all = results[0].shared;
  for (std::size_t t = 0; t < results.size(); ++t) {
    const int base = static_cast<int>(t) * kTypesPerThread;
    EXPECT_EQ(results[t].received,
              kTypesPerThread * (base + kSharedBase) +
                  2 * (kTypesPerThread * (kTypesPerThread - 1) / 2))
        << "thread " << t;
    EXPECT_EQ(results[t].shared, results[0].shared) << "thread " << t;
    all.insert(all.end(), results[t].own.begin(), results[t].own.end());
  }
  ASSERT_EQ(all.size(), (results.size() + 1) * kTypesPerThread);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_NE(all[i], 0u);
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i], all[j]) << i << " vs " << j;
    }
  }
}

struct PingMsg {
  int value = 0;
};
struct StrayMsg {
  int value = 0;
};

// Two sites, both with an enabled reliable channel and batch channel.
struct Pair {
  sim::Kernel k;
  Network net{k, 2, tu(2)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  ReliableChannel ch0{ms0, ReliableChannel::Options{true, 5, tu(8)},
                      sim::RandomStream{7}.fork(0xCA00)};
  ReliableChannel ch1{ms1, ReliableChannel::Options{true, 5, tu(8)},
                      sim::RandomStream{7}.fork(0xCA01)};
  BatchChannel b0{ms0, &ch0, BatchChannel::Options{tu(1)}};
  BatchChannel b1{ms1, &ch1, BatchChannel::Options{tu(1)}};

  Pair() {
    ms0.start();
    ms1.start();
  }
};

TEST(SingleDispatchTableTest, OneHandlerServesDirectFramedAndWrappedSends) {
  Pair p;
  std::vector<int> pings;
  p.ms1.on<PingMsg>([&pings](SiteId from, PingMsg m) {
    EXPECT_EQ(from, 0u);
    pings.push_back(m.value);
  });
  p.ms0.send(1, PingMsg{1});     // direct
  p.b0.send_raw(1, PingMsg{2});  // in a raw batch frame
  p.ch0.send(1, PingMsg{3});     // in a reliable wrapper
  p.b0.send(1, PingMsg{4});      // in a frame, in a reliable wrapper
  p.k.run();
  EXPECT_EQ(pings, (std::vector<int>{1, 3, 4, 2}));
  // Handler calls: 4 pings, 2 frames, 2 reliable wrappers, 2 acks at ms0.
  EXPECT_EQ(p.ms1.dispatched(), 8u);
  EXPECT_EQ(p.ms1.unhandled(), 0u);
  EXPECT_EQ(p.ms0.dispatched(), 2u);
}

TEST(SingleDispatchTableTest, StrayPayloadInAFrameIsCounted) {
  Pair p;
  p.b0.send_raw(1, StrayMsg{1});
  p.k.run();
  EXPECT_EQ(p.b0.batch_flushes(), 1u);
  EXPECT_EQ(p.ms1.unhandled(), 1u);
  EXPECT_EQ(p.ms1.dispatched(), 1u);  // the frame itself had a handler
}

TEST(SingleDispatchTableTest, StrayPayloadInAReliableWrapperIsCounted) {
  Pair p;
  p.ch0.send(1, StrayMsg{1});
  p.k.run();
  EXPECT_EQ(p.ms1.unhandled(), 1u);
  EXPECT_EQ(p.ms1.dispatched(), 1u);  // the wrapper itself had a handler
  EXPECT_EQ(p.ch0.in_flight(), 0u);   // still acked: the wrapper arrived
}

TEST(NetworkSlotTest, InFlightSlotsAreReusedInOrder) {
  sim::Kernel k;
  Network net{k, 2, tu(3)};
  MessageServer ms1{k, net, 1};
  std::vector<int> got;
  ms1.on<PingMsg>([&got](SiteId, PingMsg m) { got.push_back(m.value); });
  ms1.start();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) {
      net.send(Envelope{0, 1, PingMsg{round * 4 + i}, nullptr});
    }
    k.run();
  }
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(net.messages_delivered(), 12u);
}

}  // namespace
}  // namespace rtdb::net
