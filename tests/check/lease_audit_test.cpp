// Mutation fixtures for the lease audit: feed the observer the event
// stream a correct failover run produces (passes clean), then the streams
// of the two classic buggy twins — a fenceless manager that keeps granting
// after its lease expired, and a client that accepts a grant stamped with
// a term it already knows is expired — and assert the specific rule fires
// with a non-empty trace window.

#include <gtest/gtest.h>

#include "check/monitor.hpp"
#include "dist/lease.hpp"
#include "sim/kernel.hpp"

namespace rtdb::check {
namespace {

TEST(LeaseAuditTest, CleanFailoverLifecyclePasses) {
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  // Term 0: site 0 is born holding the lease and grants.
  audit->on_lease_acquired(0, 0);
  audit->on_lease_grant(0, 0);
  audit->on_grant_accepted(1, 0);
  // Partition: site 0 fences (lease expires), the majority elects site 1.
  audit->on_lease_released(0, 0);
  audit->on_term_adopted(1, 1);
  audit->on_lease_acquired(1, 1);
  audit->on_term_adopted(2, 1);
  audit->on_lease_grant(1, 1);
  audit->on_grant_accepted(2, 1);
  // Heal: the minority adopts the higher term.
  audit->on_term_adopted(0, 1);
  EXPECT_EQ(monitor.violations(), 0u) << monitor.format_reports();
}

TEST(LeaseAuditTest, FlagsFencelessManagerTwin) {
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 0);
  audit->on_lease_grant(0, 0);
  audit->on_lease_released(0, 0);  // the lease expired (quorum lost)
  // Mutation: the fence failed — the manager keeps granting anyway.
  audit->on_lease_grant(0, 0);
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.reports()[0].rule, "lease.grant_without_lease");
  EXPECT_FALSE(monitor.reports()[0].trace.empty());
}

TEST(LeaseAuditTest, FlagsGrantStampedWithSomeoneElsesTerm) {
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 0);
  audit->on_lease_acquired(1, 1);
  // Mutation: site 0 stamps a grant with the successor's term — it holds a
  // lease, but not for that term.
  audit->on_lease_grant(0, 1);
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.reports()[0].rule, "lease.grant_without_lease");
  EXPECT_FALSE(monitor.reports()[0].trace.empty());
}

TEST(LeaseAuditTest, FlagsTwoHoldersOfOneTerm) {
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 5);
  // Mutation: split brain — a second site claims the same term's lease.
  audit->on_lease_acquired(1, 5);
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.reports()[0].rule, "lease.single_holder");
  EXPECT_FALSE(monitor.reports()[0].trace.empty());
}

TEST(LeaseAuditTest, ReacquiringYourOwnTermIsNotSplitBrain) {
  // Unfence after a transient quorum loss: same site, same term.
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 0);
  audit->on_lease_released(0, 0);
  audit->on_lease_acquired(0, 0);
  audit->on_lease_grant(0, 0);
  EXPECT_EQ(monitor.violations(), 0u) << monitor.format_reports();
}

TEST(LeaseAuditTest, FlagsStaleTermAcceptingClientTwin) {
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 0);
  audit->on_term_adopted(2, 1);  // site 2's failover adopted the election
  // Mutation: its client still acts on a term-0 grant (the rejection
  // check was dropped).
  audit->on_lease_grant(0, 0);
  audit->on_grant_accepted(2, 0);
  ASSERT_EQ(monitor.violations(), 1u);
  EXPECT_EQ(monitor.reports()[0].rule, "lease.stale_term_grant");
  EXPECT_FALSE(monitor.reports()[0].trace.empty());
}

TEST(LeaseAuditTest, StaleEmissionBeforeAdoptionIsLegal) {
  // The asymmetric-partition window: the old manager still holds its lease
  // (its inbound view is green) and grants with term 0 after the majority
  // elected term 1. Emission is not the violation — and neither is a
  // not-yet-informed site acting on it. Only acceptance *after* adoption
  // (previous test) trips the rule.
  sim::Kernel k;
  ConformanceMonitor monitor{k};
  dist::LeaseObserver* audit = monitor.lease_observer(0);
  audit->on_lease_acquired(0, 0);
  audit->on_term_adopted(1, 1);
  audit->on_lease_acquired(1, 1);
  audit->on_lease_grant(0, 0);     // emitted under its own live lease
  audit->on_grant_accepted(0, 0);  // site 0 has not adopted term 1 yet
  EXPECT_EQ(monitor.violations(), 0u) << monitor.format_reports();
}

}  // namespace
}  // namespace rtdb::check
