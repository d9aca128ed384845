#include "net/message_server.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/network.hpp"
#include "sim/kernel.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;
using sim::Kernel;
using sim::Task;

Duration tu(std::int64_t n) { return Duration::units(n); }

struct Ping {
  int value = 0;
};
struct Pong {
  int value = 0;
};

TEST(MessageServerTest, DispatchesByPayloadType) {
  Kernel k;
  Network net{k, 2, tu(1)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  std::vector<int> pings;
  std::vector<int> pongs;
  ms1.on<Ping>([&](SiteId from, Ping p) {
    EXPECT_EQ(from, 0u);
    pings.push_back(p.value);
  });
  ms1.on<Pong>([&](SiteId, Pong p) { pongs.push_back(p.value); });
  ms1.start();
  ms0.send(1, Ping{10});
  ms0.send(1, Pong{20});
  ms0.send(1, Ping{30});
  k.run();
  EXPECT_EQ(pings, (std::vector<int>{10, 30}));
  EXPECT_EQ(pongs, (std::vector<int>{20}));
  EXPECT_EQ(ms1.dispatched(), 3u);
}

TEST(MessageServerTest, UnhandledTypesAreCountedNotFatal) {
  Kernel k;
  Network net{k, 2};
  MessageServer ms1{k, net, 1};
  ms1.start();
  net.send(Envelope{0, 1, Payload{std::string{"mystery"}}, nullptr});
  k.run();
  EXPECT_EQ(ms1.unhandled(), 1u);
  EXPECT_EQ(ms1.dispatched(), 0u);
}

TEST(MessageServerTest, SyncSendCompletesOnRetrieval) {
  Kernel k;
  Network net{k, 2, tu(4)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  ms1.on<Ping>([](SiteId, Ping) {});
  ms1.start();
  bool delivered = false;
  double resumed_at = -1;
  k.spawn("tx", [](Kernel& k, MessageServer& ms0, bool& delivered,
                   double& at) -> Task<void> {
    delivered = co_await ms0.send_sync(1, Ping{1}, Duration::units(100));
    at = k.now().as_units();
  }(k, ms0, delivered, resumed_at));
  k.run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(resumed_at, 4.0);  // one-way delay
}

TEST(MessageServerTest, SyncSendTimesOutWhenSiteDown) {
  Kernel k;
  Network net{k, 2, tu(4)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  ms1.start();
  net.set_operational(1, false);
  bool delivered = true;
  double resumed_at = -1;
  k.spawn("tx", [](Kernel& k, MessageServer& ms0, bool& delivered,
                   double& at) -> Task<void> {
    delivered = co_await ms0.send_sync(1, Ping{1}, Duration::units(10));
    at = k.now().as_units();
  }(k, ms0, delivered, resumed_at));
  k.run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(resumed_at, 10.0);  // unblocked by the timeout mechanism
}

TEST(MessageServerTest, StopHaltsDispatchQueueRemains) {
  Kernel k;
  Network net{k, 2, tu(1)};
  MessageServer ms1{k, net, 1};
  int handled = 0;
  ms1.on<Ping>([&](SiteId, Ping) { ++handled; });
  ms1.start();
  net.send(Envelope{0, 1, Payload{Ping{1}}, nullptr});
  k.schedule_in(tu(2), [&] { ms1.stop(); });
  k.schedule_in(tu(3),
                [&] { net.send(Envelope{0, 1, Payload{Ping{2}}, nullptr}); });
  k.run();
  EXPECT_EQ(handled, 1);
  EXPECT_EQ(net.inbox(1).queued(), 1u);  // second message parked in inbox
}

TEST(MessageServerTest, StartIsIdempotent) {
  Kernel k;
  Network net{k, 1};
  MessageServer ms{k, net, 0};
  ms.start();
  ms.start();
  EXPECT_TRUE(ms.running());
  k.run();
}

}  // namespace
}  // namespace rtdb::net
