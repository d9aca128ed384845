#include "net/fault.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"

namespace rtdb::net {
namespace {

using sim::Duration;
using sim::Kernel;

Duration tu(std::int64_t n) { return Duration::units(n); }

FaultSpec message_spec(double drop, double dup, std::int64_t jitter) {
  FaultSpec spec;
  spec.drop_rate = drop;
  spec.dup_rate = dup;
  spec.jitter = tu(jitter);
  return spec;
}

TEST(FaultSpecTest, ActivityHelpers) {
  FaultSpec zero;
  EXPECT_FALSE(zero.message_faults());
  EXPECT_FALSE(zero.active());

  EXPECT_TRUE(message_spec(0.1, 0, 0).message_faults());
  EXPECT_TRUE(message_spec(0, 0.1, 0).message_faults());
  EXPECT_TRUE(message_spec(0, 0, 3).message_faults());

  FaultSpec crash_only;
  crash_only.crashes.push_back(FaultSpec::Crash{1, tu(10), tu(5)});
  EXPECT_FALSE(crash_only.message_faults());
  EXPECT_TRUE(crash_only.active());
}

TEST(FaultInjectorTest, IdenticalSeedsYieldIdenticalSchedules) {
  const FaultSpec spec = message_spec(0.2, 0.2, 7);
  FaultInjector a{spec, sim::RandomStream{42}};
  FaultInjector b{spec, sim::RandomStream{42}};
  for (int i = 0; i < 2000; ++i) {
    const FaultInjector::Decision da = a.next();
    const FaultInjector::Decision db = b.next();
    ASSERT_EQ(da.drop, db.drop) << "message " << i;
    ASSERT_EQ(da.duplicate, db.duplicate) << "message " << i;
    ASSERT_EQ(da.extra_delay, db.extra_delay) << "message " << i;
    ASSERT_EQ(da.duplicate_delay, db.duplicate_delay) << "message " << i;
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_EQ(a.duplicates(), b.duplicates());
  EXPECT_GT(a.drops(), 0u);       // the spec actually dropped something
  EXPECT_GT(a.duplicates(), 0u);  // and duplicated something
}

TEST(FaultInjectorTest, DifferentSeedsYieldDifferentSchedules) {
  const FaultSpec spec = message_spec(0.5, 0, 0);
  FaultInjector a{spec, sim::RandomStream{1}};
  FaultInjector b{spec, sim::RandomStream{2}};
  bool diverged = false;
  for (int i = 0; i < 256 && !diverged; ++i) {
    diverged = a.next().drop != b.next().drop;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, JitterIsBoundedBySpec) {
  const FaultSpec spec = message_spec(0, 0, 5);
  FaultInjector injector{spec, sim::RandomStream{3}};
  for (int i = 0; i < 500; ++i) {
    const FaultInjector::Decision d = injector.next();
    EXPECT_FALSE(d.drop);
    EXPECT_GE(d.extra_delay, Duration::zero());
    EXPECT_LE(d.extra_delay, tu(5));
  }
}

TEST(NetworkFaultTest, DropRateOneLosesEveryInterSiteMessage) {
  Kernel k;
  Network net{k, 2, tu(1)};
  net.install_faults(message_spec(1.0, 0, 0), sim::RandomStream{9});
  for (int i = 0; i < 10; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  k.run();
  EXPECT_EQ(net.messages_sent(), 10u);
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_EQ(net.fault_drops(), 10u);
  EXPECT_EQ(net.inbox(1).queued(), 0u);
}

TEST(NetworkFaultTest, DupRateOneDeliversEveryMessageTwice) {
  Kernel k;
  Network net{k, 2, tu(1)};
  net.install_faults(message_spec(0, 1.0, 0), sim::RandomStream{9});
  for (int i = 0; i < 5; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  k.run();
  EXPECT_EQ(net.messages_sent(), 5u);
  EXPECT_EQ(net.messages_delivered(), 10u);
  EXPECT_EQ(net.fault_duplicates(), 5u);
  EXPECT_EQ(net.inbox(1).queued(), 10u);
}

TEST(NetworkFaultTest, IntraSiteMessagesBypassTheFaultModel) {
  Kernel k;
  Network net{k, 2, Duration::zero()};
  net.install_faults(message_spec(1.0, 0, 0), sim::RandomStream{9});
  net.send(Envelope{0, 0, Payload{1}, nullptr});
  EXPECT_EQ(net.messages_delivered(), 1u);
  EXPECT_EQ(net.fault_drops(), 0u);
}

TEST(NetworkFaultTest, ZeroSpecNeverConsultsTheInjector) {
  Kernel k;
  Network net{k, 2, tu(1)};
  net.install_faults(FaultSpec{}, sim::RandomStream{9});
  for (int i = 0; i < 8; ++i) net.send(Envelope{0, 1, Payload{i}, nullptr});
  k.run();
  EXPECT_EQ(net.messages_delivered(), 8u);
  EXPECT_EQ(net.fault_drops(), 0u);
  EXPECT_EQ(net.fault_duplicates(), 0u);
}

TEST(NetworkFaultTest, CrashedSiteSendsNothing) {
  Kernel k;
  Network net{k, 2, tu(1)};
  net.set_operational(0, false);
  net.send(Envelope{0, 1, Payload{1}, nullptr});
  k.run();
  EXPECT_EQ(net.messages_delivered(), 0u);
  EXPECT_EQ(net.messages_dropped(), 1u);
}

}  // namespace
}  // namespace rtdb::net
