#include "net/network.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/message_server.hpp"
#include "sim/kernel.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;
using sim::Kernel;
using sim::Task;

Duration tu(std::int64_t n) { return Duration::units(n); }

// Every message sent (or duplicated) was delivered or lost exactly once,
// and every slot was freed: retrieved by a dispatcher, dropped, or cleared
// with a crashed site's inbox.
void expect_accounted(const Network& net) {
  EXPECT_EQ(net.occupied_slots(), 0u);
  EXPECT_EQ(net.messages_sent() + net.fault_duplicates(),
            net.messages_delivered() + net.messages_dropped() +
                net.partition_drops() + net.fault_drops());
}

TEST(NetworkTest, DeliversAfterLinkDelay) {
  Kernel k;
  Network net{k, 2, tu(5)};
  double arrived_at = -1;
  int got = 0;
  k.spawn("rx", [](Kernel& k, Network& net, double& at, int& got) -> Task<void> {
    const Envelope env = net.retrieve(*co_await net.inbox(1).receive());
    at = k.now().as_units();
    got = env.body.get<int>();
  }(k, net, arrived_at, got));
  net.send(Envelope{0, 1, Payload{42}, nullptr});
  k.run();
  EXPECT_EQ(arrived_at, 5.0);
  EXPECT_EQ(got, 42);
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkTest, PerLinkDelaysAreDirectional) {
  Kernel k;
  Network net{k, 2};
  net.set_delay(0, 1, tu(3));
  net.set_delay(1, 0, tu(7));
  EXPECT_EQ(net.delay(0, 1), tu(3));
  EXPECT_EQ(net.delay(1, 0), tu(7));
  EXPECT_EQ(net.delay(0, 0), Duration::zero());
}

TEST(NetworkTest, SetAllDelaysSkipsSelfLoops) {
  Kernel k;
  Network net{k, 3};
  net.set_all_delays(tu(2));
  for (SiteId a = 0; a < 3; ++a) {
    for (SiteId b = 0; b < 3; ++b) {
      EXPECT_EQ(net.delay(a, b), a == b ? Duration::zero() : tu(2));
    }
  }
}

TEST(NetworkTest, MessageOrderPreservedPerLink) {
  Kernel k;
  Network net{k, 2, tu(4)};
  std::vector<int> got;
  k.spawn("rx", [](Network& net, std::vector<int>& got) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      got.push_back(
          net.retrieve(*co_await net.inbox(1).receive()).body.get<int>());
    }
  }(net, got));
  for (int i = 0; i < 3; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  k.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(NetworkTest, DownSiteDropsAtDeliveryTime) {
  Kernel k;
  Network net{k, 2, tu(5)};
  net.send(Envelope{0, 1, Payload{1}, nullptr});
  EXPECT_EQ(net.occupied_slots(), 1u);
  k.schedule_in(tu(2), [&] { net.set_operational(1, false); });
  k.run();
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_TRUE(net.inbox(1).empty());
  expect_accounted(net);
}

TEST(NetworkTest, SiteRecoveryDeliversLaterMessages) {
  Kernel k;
  Network net{k, 2, tu(1)};
  net.set_operational(1, false);
  net.send(Envelope{0, 1, Payload{1}, nullptr});  // lost
  k.schedule_in(tu(5), [&] {
    net.set_operational(1, true);
    net.send(Envelope{0, 1, Payload{2}, nullptr});  // delivered
  });
  int got = 0;
  k.spawn("rx", [](Network& net, int& got) -> Task<void> {
    got = net.retrieve(*co_await net.inbox(1).receive()).body.get<int>();
  }(net, got));
  k.run();
  EXPECT_EQ(got, 2);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, IntraSiteSendBypassesDelay) {
  Kernel k;
  Network net{k, 2, tu(9)};
  bool got = false;
  k.spawn("rx", [](Kernel& k, Network& net, bool& got) -> Task<void> {
    net.retrieve(*co_await net.inbox(0).receive());
    EXPECT_EQ(k.now().as_units(), 0.0);
    got = true;
  }(k, net, got));
  k.spawn("tx", [](Kernel& k, Network& net) -> Task<void> {
    co_await k.yield();
    net.send(Envelope{0, 0, Payload{1}, nullptr});
  }(k, net));
  k.run();
  EXPECT_TRUE(got);
  expect_accounted(net);
}

TEST(NetworkTest, BroadcastReachesEveryOtherSite) {
  Kernel k;
  Network net{k, 3, tu(2)};
  int got[3] = {};
  auto rx = [](Network& net, int* got, SiteId site) -> Task<void> {
    got[site] =
        net.retrieve(*co_await net.inbox(site).receive()).body.get<int>();
  };
  k.spawn("rx1", rx(net, got, 1));
  k.spawn("rx2", rx(net, got, 2));
  net.broadcast(0, Payload{9});
  k.run();
  EXPECT_EQ(got[0], 0);  // sender excluded
  EXPECT_EQ(got[1], 9);
  EXPECT_EQ(got[2], 9);
  EXPECT_EQ(net.messages_sent(), 2u);
}

TEST(NetworkSlotTest, DuplicatesFreeTheirSlotsOnRetrieval) {
  Kernel k;
  Network net{k, 2, tu(1)};
  FaultSpec spec;
  spec.dup_rate = 1.0;
  net.install_faults(spec, sim::RandomStream{9});
  MessageServer ms1{k, net, 1};
  int handled = 0;
  ms1.on<int>([&](SiteId, int) { ++handled; });
  ms1.start();
  for (int i = 0; i < 5; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  EXPECT_EQ(net.occupied_slots(), 10u);
  k.run();
  EXPECT_EQ(handled, 10);
  EXPECT_EQ(net.fault_duplicates(), 5u);
  expect_accounted(net);
}

TEST(NetworkSlotTest, CrashClearsQueuedSlotsIncludingARevokedWake) {
  // Three messages arrive at one instant: the first goes to the waiting
  // dispatcher, whose wake is scheduled after the other two arrive; the
  // crash runs in between, so stopping the dispatcher revokes that wake and
  // puts its slot back in the inbox before the inbox is cleared.
  Kernel k;
  Network net{k, 2, tu(1)};
  MessageServer ms1{k, net, 1};
  int handled = 0;
  ms1.on<int>([&](SiteId, int) { ++handled; });
  ms1.start();
  for (int i = 0; i < 3; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  bool crashed = false;
  k.schedule_in(tu(1), [&] {
    // As System::crash_site does it.
    EXPECT_EQ(net.inbox(1).queued(), 2u);
    net.set_operational(1, false);
    ms1.stop();
    EXPECT_EQ(net.inbox(1).queued(), 3u);  // the revoked wake's slot
    net.clear_inbox(1);
    crashed = true;
  });
  k.run();
  EXPECT_TRUE(crashed);
  EXPECT_EQ(handled, 0);
  EXPECT_EQ(net.messages_delivered(), 3u);
  EXPECT_EQ(net.inbox(1).queued(), 0u);
  expect_accounted(net);
}

}  // namespace
}  // namespace rtdb::net
