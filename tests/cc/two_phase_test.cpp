#include "cc/two_phase.hpp"

#include <gtest/gtest.h>

#include "cc_test_util.hpp"
#include "sim/kernel.hpp"

namespace rtdb::cc {
namespace {

using sim::Duration;
using sim::Kernel;
using testutil::make_txn;
using testutil::Rig;
using testutil::ScriptResult;
using testutil::spawn_scripted;

Duration tu(std::int64_t n) { return Duration::units(n); }

TwoPhaseLocking::Options fifo_opts() {
  return TwoPhaseLocking::Options{LockTable::QueuePolicy::kFifo, false,
                                  TwoPhaseLocking::VictimPolicy::kLowestPriority};
}
TwoPhaseLocking::Options prio_opts() {
  return TwoPhaseLocking::Options{LockTable::QueuePolicy::kPriority, false,
                                  TwoPhaseLocking::VictimPolicy::kLowestPriority};
}

TEST(TwoPhaseTest, NamesReflectConfiguration) {
  Kernel k;
  TwoPhaseLocking l{k, fifo_opts()};
  TwoPhaseLocking p{k, prio_opts()};
  PriorityInheritance2PL pip{k};
  EXPECT_EQ(l.name(), "2PL");
  EXPECT_EQ(p.name(), "2PL-P");
  EXPECT_EQ(pip.name(), "2PL-PIP");
}

TEST(TwoPhaseTest, ConflictingWritersSerialize) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{5, LockMode::kWrite}}, tu(0), tu(10), tu(0), r1);
  spawn_scripted(rig, t2, {{5, LockMode::kWrite}}, tu(1), tu(10), tu(0), r2);
  k.run();
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(r1.committed_at, 10.0);
  EXPECT_EQ(r2.committed_at, 20.0);  // waited for t1's release
  EXPECT_EQ(t2.block_count, 1u);
  EXPECT_EQ(t2.blocked_total, tu(9));
}

TEST(TwoPhaseTest, ReadersProceedConcurrently) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{5, LockMode::kRead}}, tu(0), tu(10), tu(0), r1);
  spawn_scripted(rig, t2, {{5, LockMode::kRead}}, tu(1), tu(10), tu(0), r2);
  k.run();
  EXPECT_EQ(r1.committed_at, 10.0);
  EXPECT_EQ(r2.committed_at, 11.0);  // no blocking
  EXPECT_EQ(cc.blocks(), 0u);
}

TEST(TwoPhaseTest, ClassicDeadlockResolvedByVictim) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  // t1 (high priority): A then B. t2 (low priority): B then A.
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(5), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(5), tu(0), r2);
  k.run();
  EXPECT_EQ(cc.deadlocks(), 1u);
  // Lowest-priority victim policy: t2 dies, t1 commits.
  EXPECT_TRUE(r1.committed);
  EXPECT_FALSE(r2.committed);
  EXPECT_TRUE(rig.hook_aborted(t2) || r2.self_aborted);
}

TEST(TwoPhaseTest, RequesterVictimPolicyAbortsSelf) {
  Kernel k;
  TwoPhaseLocking cc{
      k, TwoPhaseLocking::Options{LockTable::QueuePolicy::kFifo, false,
                                  TwoPhaseLocking::VictimPolicy::kRequester}};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(5), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(5), tu(0), r2);
  k.run();
  // The cycle closes when t1 requests B (t2 already waits for A)... or vice
  // versa depending on interleaving; with these timings t1 holds A at 0,
  // t2 holds B at 1; t1 requests B at 5 and blocks (no cycle yet); t2
  // requests A at 6 closing the cycle, so t2 self-aborts.
  EXPECT_EQ(cc.deadlocks(), 1u);
  EXPECT_TRUE(r2.self_aborted);
  EXPECT_EQ(r2.self_abort_reason, AbortReason::kDeadlockVictim);
  EXPECT_TRUE(r1.committed);
}

TEST(TwoPhaseTest, YoungestVictimPolicy) {
  Kernel k;
  TwoPhaseLocking cc{
      k, TwoPhaseLocking::Options{LockTable::QueuePolicy::kFifo, false,
                                  TwoPhaseLocking::VictimPolicy::kYoungest}};
  Rig rig{k, cc};
  // Give the *older* transaction the lower priority so the policies differ:
  // youngest = t2 regardless of priority.
  CcTxn t1 = make_txn(1, 9), t2 = make_txn(2, 1);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(5), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(5), tu(0), r2);
  k.run();
  EXPECT_FALSE(r2.committed);
  EXPECT_TRUE(r1.committed);
}

TEST(TwoPhaseTest, PriorityModeServesUrgentWaiterFirst) {
  Kernel k;
  TwoPhaseLocking cc{k, prio_opts()};
  Rig rig{k, cc};
  CcTxn holder = make_txn(1, 5), low = make_txn(2, 9), high = make_txn(3, 1);
  ScriptResult rh, rl, rhigh;
  spawn_scripted(rig, holder, {{0, LockMode::kWrite}}, tu(0), tu(10), tu(0), rh);
  spawn_scripted(rig, low, {{0, LockMode::kWrite}}, tu(1), tu(5), tu(0), rl);
  spawn_scripted(rig, high, {{0, LockMode::kWrite}}, tu(2), tu(5), tu(0), rhigh);
  k.run();
  EXPECT_EQ(rhigh.committed_at, 15.0);  // granted at holder release (10)
  EXPECT_EQ(rl.committed_at, 20.0);
}

TEST(TwoPhaseTest, FifoModeServesArrivalOrder) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  CcTxn holder = make_txn(1, 5), low = make_txn(2, 9), high = make_txn(3, 1);
  ScriptResult rh, rl, rhigh;
  spawn_scripted(rig, holder, {{0, LockMode::kWrite}}, tu(0), tu(10), tu(0), rh);
  spawn_scripted(rig, low, {{0, LockMode::kWrite}}, tu(1), tu(5), tu(0), rl);
  spawn_scripted(rig, high, {{0, LockMode::kWrite}}, tu(2), tu(5), tu(0), rhigh);
  k.run();
  EXPECT_EQ(rl.committed_at, 15.0);     // FIFO ignores priority
  EXPECT_EQ(rhigh.committed_at, 20.0);
}

// The chained-blocking weakness of basic priority inheritance (§3.1): T1
// needs O1 then O2, already locked by the lower-priority T2 and T3 — T1 is
// blocked twice.
TEST(TwoPhaseTest, PipSuffersChainedBlocking) {
  Kernel k;
  PriorityInheritance2PL cc{k};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2), t3 = make_txn(3, 3);
  ScriptResult r1, r2, r3;
  spawn_scripted(rig, t3, {{2, LockMode::kWrite}}, tu(0), tu(20), tu(0), r3);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}}, tu(1), tu(10), tu(0), r2);
  spawn_scripted(rig, t1, {{1, LockMode::kWrite}, {2, LockMode::kWrite}},
                 tu(2), tu(1), tu(0), r1);
  k.run();
  EXPECT_TRUE(r1.committed);
  EXPECT_EQ(t1.block_count, 2u);  // once behind t2 (O1), once behind t3 (O2)
}

TEST(TwoPhaseTest, PipInheritanceBoostsBlocker) {
  Kernel k;
  PriorityInheritance2PL cc{k};
  Rig rig{k, cc};
  CcTxn lo = make_txn(1, 9), hi = make_txn(2, 1);
  std::vector<std::pair<std::uint64_t, std::int64_t>> boosts;
  rig.on_priority_changed = [&](const CcTxn& t) {
    boosts.emplace_back(t.id.value, t.effective_priority().key());
  };
  ScriptResult rl, rh;
  spawn_scripted(rig, lo, {{0, LockMode::kWrite}}, tu(0), tu(10), tu(0), rl);
  spawn_scripted(rig, hi, {{0, LockMode::kWrite}}, tu(1), tu(1), tu(0), rh);
  k.run();
  // While hi was blocked, lo inherited hi's priority (key 1)...
  ASSERT_FALSE(boosts.empty());
  EXPECT_EQ(boosts.front(), (std::pair<std::uint64_t, std::int64_t>{1, 1}));
  // ...and the inheritance was withdrawn when the block ended.
  EXPECT_EQ(boosts.back(), (std::pair<std::uint64_t, std::int64_t>{1, 9}));
  EXPECT_TRUE(rl.committed);
  EXPECT_TRUE(rh.committed);
}

TEST(TwoPhaseTest, TransitiveInheritanceThroughChain) {
  Kernel k;
  PriorityInheritance2PL cc{k};
  Rig rig{k, cc};
  // t3 (lowest) holds A; t2 waits for A while holding B; t1 (highest)
  // waits for B => t3 must inherit t1's priority through t2.
  CcTxn t3 = make_txn(3, 30), t2 = make_txn(2, 20), t1 = make_txn(1, 10);
  std::int64_t t3_best_key = 100;
  rig.on_priority_changed = [&](const CcTxn& t) {
    if (t.id.value == 3) {
      t3_best_key = std::min(t3_best_key, t.effective_priority().key());
    }
  };
  ScriptResult r1, r2, r3;
  spawn_scripted(rig, t3, {{0, LockMode::kWrite}}, tu(0), tu(30), tu(0), r3);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(5), tu(0), r2);
  spawn_scripted(rig, t1, {{1, LockMode::kWrite}}, tu(10), tu(5), tu(0), r1);
  k.run();
  EXPECT_EQ(t3_best_key, 10);  // inherited t1's key transitively
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_TRUE(r3.committed);
}

TEST(TwoPhaseTest, KilledWaiterLeavesCleanState) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  CcTxn holder = make_txn(1, 1), waiter = make_txn(2, 2);
  ScriptResult rh, rw;
  spawn_scripted(rig, holder, {{0, LockMode::kWrite}}, tu(0), tu(20), tu(0), rh);
  auto pid = spawn_scripted(rig, waiter, {{0, LockMode::kWrite}}, tu(1), tu(5),
                            tu(0), rw);
  k.schedule_in(tu(5), [&] {
    k.kill(pid);
    cc.release_all(waiter);
    cc.on_end(waiter);
  });
  k.run();
  EXPECT_TRUE(rh.committed);
  EXPECT_FALSE(rw.committed);
  EXPECT_EQ(cc.table().waiting_requests(), 0u);
}

TEST(TwoPhaseTest, ThreeWayDeadlockResolved) {
  Kernel k;
  TwoPhaseLocking cc{k, fifo_opts()};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2), t3 = make_txn(3, 3);
  ScriptResult r1, r2, r3;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(4), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {2, LockMode::kWrite}},
                 tu(1), tu(4), tu(0), r2);
  spawn_scripted(rig, t3, {{2, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(2), tu(4), tu(0), r3);
  k.run();
  EXPECT_GE(cc.deadlocks(), 1u);
  int committed = r1.committed + r2.committed + r3.committed;
  EXPECT_EQ(committed, 2);  // exactly one victim
}

TEST(TwoPhaseTest, SharedGrantOvertakingQueuedWriterClosesCycle) {
  Kernel k;
  TwoPhaseLocking cc{k, prio_opts()};
  Rig rig{k, cc};
  // t1 reads A for 50 units. t2 writes B, then queues to write A behind
  // t1. t3 (most urgent) reads A ahead of t2's queued write, so t2 now
  // waits on t3 as well; t3's write on B closes the cycle t3 -> t2 -> t3.
  CcTxn t1 = make_txn(1, 30), t2 = make_txn(2, 20), t3 = make_txn(3, 10);
  ScriptResult r1, r2, r3;
  spawn_scripted(rig, t1, {{0, LockMode::kRead}}, tu(0), tu(50), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(1), tu(0), r2);
  spawn_scripted(rig, t3, {{0, LockMode::kRead}, {1, LockMode::kWrite}},
                 tu(3), tu(1), tu(0), r3);
  k.run();
  EXPECT_EQ(cc.deadlocks(), 1u);
  EXPECT_TRUE(rig.hook_aborted(t2));  // the cycle's least urgent member
  EXPECT_TRUE(r3.committed);
  EXPECT_EQ(r3.committed_at, 5.0);
  EXPECT_TRUE(r1.committed);
  // A missed cycle leaves t2 and t3 blocked for good.
  rig.abort_stranded();
}

}  // namespace
}  // namespace rtdb::cc
