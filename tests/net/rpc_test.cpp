#include "net/rpc.hpp"

#include <gtest/gtest.h>

#include <string>

#include "net/message_server.hpp"
#include "net/network.hpp"
#include "sim/kernel.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;
using sim::Kernel;
using sim::ProcessId;
using sim::Task;

Duration tu(std::int64_t n) { return Duration::units(n); }

struct Harness {
  Kernel k;
  Network net{k, 2, tu(2)};
  MessageServer ms0{k, net, 0};
  MessageServer ms1{k, net, 1};
  RpcClient client{ms0};
  RpcServer server{ms1};

  Harness() {
    ms0.start();
    ms1.start();
  }
};

TEST(RpcTest, ImmediateResponseRoundTrip) {
  Harness h;
  h.server.on<int>([](SiteId from, int request, RpcServer::Responder respond) {
    EXPECT_EQ(from, 0u);
    respond(request * 2);
  });
  int got = 0;
  double at = -1;
  h.k.spawn("caller", [](Harness& h, int& got, double& at) -> Task<void> {
    auto resp = co_await h.client.call(1, Payload{21});
    EXPECT_TRUE(resp.has_value());  // coroutine: EXPECT, not ASSERT
    if (resp) got = resp->get<int>();
    at = h.k.now().as_units();
  }(h, got, at));
  h.k.run();
  EXPECT_EQ(got, 42);
  EXPECT_EQ(at, 4.0);  // two one-way delays
  EXPECT_EQ(h.server.requests_served(), 1u);
  EXPECT_EQ(h.client.pending_calls(), 0u);
}

TEST(RpcTest, DeferredResponderRepliesLater) {
  Harness h;
  RpcServer::Responder saved;
  h.server.on<int>([&](SiteId, int, RpcServer::Responder respond) {
    saved = std::move(respond);  // grant deferred, like a blocked lock
  });
  double at = -1;
  h.k.spawn("caller", [](Harness& h, double& at) -> Task<void> {
    auto resp = co_await h.client.call(1, Payload{1});
    EXPECT_TRUE(resp.has_value());
    at = h.k.now().as_units();
  }(h, at));
  h.k.schedule_in(tu(50), [&] { saved(Payload{std::string{"granted"}}); });
  h.k.run();
  EXPECT_EQ(at, 52.0);  // request at 2, grant sent at 50, +2 delay
}

TEST(RpcTest, TimeoutReturnsNullopt) {
  Harness h;
  h.server.on<int>([](SiteId, int, RpcServer::Responder) {
    // never responds
  });
  bool timed_out = false;
  h.k.spawn("caller", [](Harness& h, bool& timed_out) -> Task<void> {
    auto resp = co_await h.client.call(1, Payload{1}, Duration::units(10));
    timed_out = !resp.has_value();
    EXPECT_EQ(h.k.now().as_units(), 10.0);
  }(h, timed_out));
  h.k.run();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(h.client.pending_calls(), 0u);
}

TEST(RpcTest, LateResponseAfterTimeoutIsDropped) {
  Harness h;
  RpcServer::Responder saved;
  h.server.on<int>([&](SiteId, int, RpcServer::Responder respond) {
    saved = std::move(respond);
  });
  h.k.spawn("caller", [](Harness& h) -> Task<void> {
    auto resp = co_await h.client.call(1, Payload{1}, Duration::units(5));
    EXPECT_FALSE(resp.has_value());
  }(h));
  h.k.schedule_in(tu(30), [&] { saved(Payload{7}); });  // long after timeout
  h.k.run();
  EXPECT_EQ(h.client.pending_calls(), 0u);  // no leak, no crash
  // The straggler is recognized as the answer to a timed-out call (not an
  // unknown correlation) and counted — it was discarded, not misdelivered.
  EXPECT_EQ(h.client.late_responses(), 1u);
}

TEST(RpcTest, KilledCallerResponseIsNotCountedLate) {
  Harness h;
  RpcServer::Responder saved;
  h.server.on<int>([&](SiteId, int, RpcServer::Responder respond) {
    saved = std::move(respond);
  });
  ProcessId caller = h.k.spawn("caller", [](Harness& h) -> Task<void> {
    co_await h.client.call(1, Payload{1});
    ADD_FAILURE() << "caller must not complete";
  }(h));
  h.k.schedule_in(tu(4), [&] { h.k.kill(caller); });
  h.k.schedule_in(tu(30), [&] { saved(Payload{7}); });
  h.k.run();
  // A killed caller abandoned the call; only timeout-expired correlations
  // count as late responses.
  EXPECT_EQ(h.client.late_responses(), 0u);
  EXPECT_EQ(h.client.pending_calls(), 0u);
}

TEST(RpcTest, KilledCallerDeregisters) {
  Harness h;
  h.server.on<int>([](SiteId, int, RpcServer::Responder) {});
  ProcessId caller = h.k.spawn("caller", [](Harness& h) -> Task<void> {
    co_await h.client.call(1, Payload{1});
    ADD_FAILURE() << "caller must not complete";
  }(h));
  h.k.schedule_in(tu(4), [&] { h.k.kill(caller); });
  h.k.run();
  EXPECT_EQ(h.client.pending_calls(), 0u);
}

TEST(RpcTest, ConcurrentCallsCorrelateCorrectly) {
  Harness h;
  h.server.on<int>([](SiteId, int request, RpcServer::Responder respond) {
    respond(request + 100);
  });
  std::vector<int> results(3, 0);
  for (int i = 0; i < 3; ++i) {
    h.k.spawn("caller", [](Harness& h, std::vector<int>& results, int i) -> Task<void> {
      auto resp = co_await h.client.call(1, Payload{i});
      EXPECT_TRUE(resp.has_value());
      if (resp) results[i] = resp->get<int>();
    }(h, results, i));
  }
  h.k.run();
  EXPECT_EQ(results, (std::vector<int>{100, 101, 102}));
}

}  // namespace
}  // namespace rtdb::net
