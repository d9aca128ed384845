#include "cc/pcp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cc_test_util.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"

namespace rtdb::cc {
namespace {

using sim::Duration;
using sim::Kernel;
using testutil::make_txn;
using testutil::Rig;
using testutil::ScriptResult;
using testutil::spawn_scripted;

Duration tu(std::int64_t n) { return Duration::units(n); }

TEST(PcpTest, StaticCeilingsTrackActiveDeclarations) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  CcTxn hi = make_txn(1, 1);
  hi.access = AccessSet::reads_then_writes({3}, {4});
  CcTxn lo = make_txn(2, 5);
  lo.access = AccessSet::reads_then_writes({4}, {3});
  cc.on_begin(hi);
  // hi may read 3 and write 4.
  EXPECT_EQ(cc.absolute_ceiling(3), hi.base_priority);
  EXPECT_EQ(cc.write_ceiling(3), sim::Priority::lowest());
  EXPECT_EQ(cc.write_ceiling(4), hi.base_priority);
  cc.on_begin(lo);
  // lo writes 3: write ceiling of 3 rises to lo's priority.
  EXPECT_EQ(cc.write_ceiling(3), lo.base_priority);
  EXPECT_EQ(cc.absolute_ceiling(3), hi.base_priority);
  cc.on_end(hi);
  EXPECT_EQ(cc.absolute_ceiling(3), lo.base_priority);
  EXPECT_EQ(cc.write_ceiling(4), sim::Priority::lowest());
  cc.on_end(lo);
  EXPECT_EQ(cc.absolute_ceiling(3), sim::Priority::lowest());
}

TEST(PcpTest, InstanceThatNeverBeginsATransactionAnswersQueries) {
  // A standby ceiling manager may never see a transaction; its per-object
  // tables are only sized on the first begin.
  Kernel k;
  PriorityCeiling cc{k, 10};
  const CcTxn txn = make_txn(1, 1);
  EXPECT_EQ(cc.write_ceiling(3), sim::Priority::lowest());
  EXPECT_EQ(cc.absolute_ceiling(3), sim::Priority::lowest());
  EXPECT_FALSE(cc.rw_ceiling(3).has_value());
  EXPECT_FALSE(cc.is_locked(3));
  EXPECT_FALSE(cc.holds(txn, 3, LockMode::kRead));
  EXPECT_TRUE(cc.quiescent());
}

TEST(PcpTest, RwCeilingFollowsLockMode) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn hi = make_txn(1, 1);   // may write object 0
  CcTxn mid = make_txn(2, 5);  // reads object 0
  ScriptResult rh, rm;
  // mid read-locks 0 from t=0 to t=10.
  spawn_scripted(rig, mid, {{0, LockMode::kRead}}, tu(0), tu(10), tu(0), rm);
  // hi declares a write on 0 but only arrives later.
  spawn_scripted(rig, hi, {{0, LockMode::kWrite}}, tu(2), tu(2), tu(0), rh);
  bool checked = false;
  k.schedule_in(tu(1), [&] {
    // Read-locked: rw ceiling equals the write ceiling (currently lowest,
    // hi has not begun yet, so no one may write 0).
    auto ceiling = cc.rw_ceiling(0);
    EXPECT_TRUE(ceiling.has_value());
    EXPECT_EQ(*ceiling, sim::Priority::lowest());
    checked = true;
  });
  bool checked_after = false;
  k.schedule_in(tu(3), [&] {
    // hi began at 2 and declared the write: the rw ceiling of the read lock
    // must now reflect hi's priority, and hi must be blocked.
    auto ceiling = cc.rw_ceiling(0);
    EXPECT_TRUE(ceiling.has_value());
    EXPECT_EQ(*ceiling, hi.base_priority);
    EXPECT_EQ(cc.waiter_count(), 1u);
    checked_after = true;
  });
  k.run();
  EXPECT_TRUE(checked);
  EXPECT_TRUE(checked_after);
  EXPECT_TRUE(rh.committed);
  EXPECT_EQ(rh.committed_at, 12.0);  // waited for mid's release at 10
}

// The paper's §3.2 example: the ceiling protocol may forbid locking an
// *unlocked* object — the "insurance premium". The high-priority declarer
// must already be active (its declaration sets the ceiling) even though it
// performs its access late.
TEST(PcpTest, CeilingDenialOnUnlockedObject) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1);  // highest: declares object 0, accesses late
  CcTxn t2 = make_txn(2, 2);  // middle: accesses object 1 only
  CcTxn t3 = make_txn(3, 3);  // lowest: locks object 0 first
  ScriptResult r1, r2, r3;
  // t3 locks object 0 from t=0 to t=20.
  spawn_scripted(rig, t3, {{0, LockMode::kWrite}}, tu(0), tu(20), tu(0), r3);
  // t1 begins at t=0 (declaring its write on object 0, which sets the
  // ceiling) but only requests the lock at t=15.
  auto late_accessor = [](Rig& rig, CcTxn& ctx, ScriptResult& r) -> sim::Task<void> {
    ctx.access = AccessSet::reads_then_writes({}, {0});
    rig.cc().on_begin(ctx);
    co_await rig.kernel().delay(Duration::units(15));
    if (co_await rig.cc().acquire(ctx, 0, LockMode::kWrite)) {
      r.self_aborted = true;
    } else {
      co_await rig.kernel().delay(Duration::units(1));
      r.committed = true;
      r.committed_at = rig.kernel().now().as_units();
    }
    rig.cc().release_all(ctx);
    rig.cc().on_end(ctx);
  };
  rig.track(t1, k.spawn("t1", late_accessor(rig, t1, r1)));
  // t2 requests the *unlocked* object 1 at t=5: denied because its priority
  // is not higher than the ceiling of locked object 0 (= t1's priority).
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}}, tu(5), tu(1), tu(0), r2);
  k.run();
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(t2.ceiling_blocks, 1u);
  EXPECT_GE(cc.ceiling_denials(), 1u);
  // t3 releases at 20; t1 (highest) then locks 0 and commits at 21,
  // unblocking t2 which commits at 22.
  EXPECT_EQ(r1.committed_at, 21.0);
  EXPECT_EQ(r2.committed_at, 22.0);
  EXPECT_EQ(cc.dynamic_deadlocks(), 0u);
}

// §3.1/§3.2: under the ceiling protocol T1 is "blocked at most once" even
// when two of its objects are held by two lower-priority transactions —
// contrast with the PIP chained-blocking test in two_phase_test.cpp.
TEST(PcpTest, NoChainedBlocking) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2), t3 = make_txn(3, 3);
  ScriptResult r1, r2, r3;
  spawn_scripted(rig, t3, {{2, LockMode::kWrite}}, tu(0), tu(20), tu(0), r3);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}}, tu(1), tu(10), tu(0), r2);
  spawn_scripted(rig, t1, {{1, LockMode::kWrite}, {2, LockMode::kWrite}},
                 tu(2), tu(1), tu(0), r1);
  k.run();
  EXPECT_TRUE(r1.committed);
  EXPECT_LE(t1.block_count, 1u);  // the block-at-most-once property
}

// Transactions with the 2PL deadlock pattern cannot deadlock under PCP.
TEST(PcpTest, ClassicDeadlockPatternIsSafe) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(5), tu(0), r1);
  spawn_scripted(rig, t2, {{1, LockMode::kWrite}, {0, LockMode::kWrite}},
                 tu(1), tu(5), tu(0), r2);
  k.run();  // termination itself proves deadlock freedom
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(cc.protocol_aborts(), 0u);
}

TEST(PcpTest, ReadersShareWhenNoWriterDeclared) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kRead}}, tu(0), tu(10), tu(0), r1);
  spawn_scripted(rig, t2, {{0, LockMode::kRead}}, tu(1), tu(10), tu(0), r2);
  k.run();
  // No writer declares object 0, so its write ceiling stays lowest and the
  // second reader passes the ceiling test: true read sharing.
  EXPECT_EQ(r1.committed_at, 10.0);
  EXPECT_EQ(r2.committed_at, 11.0);
  EXPECT_EQ(cc.blocks(), 0u);
}

TEST(PcpTest, ExclusiveOnlyVariantBlocksReaders) {
  Kernel k;
  PriorityCeiling cc{k, 10, PriorityCeiling::Options{true}};
  EXPECT_EQ(cc.name(), "PCP-X");
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kRead}}, tu(0), tu(10), tu(0), r1);
  spawn_scripted(rig, t2, {{0, LockMode::kRead}}, tu(1), tu(10), tu(0), r2);
  k.run();
  // Exclusive semantics: the second "reader" serializes behind the first.
  EXPECT_EQ(r1.committed_at, 10.0);
  EXPECT_EQ(r2.committed_at, 20.0);
}

TEST(PcpTest, InheritanceBoostsBlockingHolder) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn lo = make_txn(1, 9), hi = make_txn(2, 1);
  std::int64_t lo_best_key = 100;
  rig.on_priority_changed = [&](const CcTxn& t) {
    if (t.id.value == 1) {
      lo_best_key = std::min(lo_best_key, t.effective_priority().key());
    }
  };
  ScriptResult rl, rh;
  spawn_scripted(rig, lo, {{0, LockMode::kWrite}}, tu(0), tu(10), tu(0), rl);
  spawn_scripted(rig, hi, {{0, LockMode::kWrite}}, tu(1), tu(1), tu(0), rh);
  k.run();
  EXPECT_EQ(lo_best_key, 1);  // lo inherited hi's priority while blocking it
  EXPECT_TRUE(rl.committed);
  EXPECT_TRUE(rh.committed);
}

TEST(PcpTest, KilledWaiterRestoresState) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn holder = make_txn(1, 2), waiter = make_txn(2, 1);
  ScriptResult rh, rw;
  spawn_scripted(rig, holder, {{0, LockMode::kWrite}}, tu(0), tu(20), tu(0), rh);
  auto pid = spawn_scripted(rig, waiter, {{0, LockMode::kWrite}}, tu(1), tu(5),
                            tu(0), rw);
  k.schedule_in(tu(5), [&] {
    EXPECT_EQ(cc.waiter_count(), 1u);
    k.kill(pid);
    cc.release_all(waiter);
    cc.on_end(waiter);
    EXPECT_EQ(cc.waiter_count(), 0u);
    // The inheritance the waiter caused must be withdrawn.
    EXPECT_EQ(holder.effective_priority(), holder.base_priority);
  });
  k.run();
  EXPECT_TRUE(rh.committed);
  EXPECT_FALSE(rw.committed);
  EXPECT_EQ(cc.active_transactions(), 0u);
}

// A dynamic-arrival cycle that the requester's own acquire closes, with
// the requester as the backstop's victim: acquire returns the abort
// instead of blocking, the hook is not called, and the protocol drains.
TEST(PcpTest, BackstopCanPickTheRequesterItself) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn a = make_txn(1, 2), b = make_txn(2, 3), c = make_txn(3, 1);
  ScriptResult ra, rb, rc;
  // b (lowest) locks 1 at t=0 and requests 3 at t=10; a locks 0 at t=1
  // (it outranks 1's ceiling, b) and requests 2 at t=21.
  spawn_scripted(rig, b, {{1, LockMode::kWrite}, {3, LockMode::kWrite}},
                 tu(0), tu(10), tu(0), rb);
  spawn_scripted(rig, a, {{0, LockMode::kWrite}, {2, LockMode::kWrite}},
                 tu(1), tu(20), tu(0), ra);
  // c (highest) declares a write of the locked object 1 at t=5, raising
  // its ceiling above a, and only accesses it at t=50.
  auto late_writer = [](Rig& rig, CcTxn& ctx,
                        ScriptResult& r) -> sim::Task<void> {
    co_await rig.kernel().delay(Duration::units(5));
    ctx.access = AccessSet::reads_then_writes({}, {1});
    rig.cc().on_begin(ctx);
    co_await rig.kernel().delay(Duration::units(45));
    if (!co_await rig.cc().acquire(ctx, 1, LockMode::kWrite)) {
      r.committed = true;
      r.committed_at = rig.kernel().now().as_units();
    }
    rig.cc().release_all(ctx);
    rig.cc().on_end(ctx);
  };
  rig.track(c, k.spawn("c", late_writer(rig, c, rc)));
  // At t=10 b blocks on a (holder of 0); at t=21 a blocks on b (holder of
  // 1, now at c's ceiling) and closes the cycle. Both inherit the same
  // priority, so the backstop keeps the first member it finds: a.
  k.run();
  EXPECT_TRUE(ra.self_aborted);
  EXPECT_EQ(ra.self_abort_reason, AbortReason::kDeadlockVictim);
  EXPECT_FALSE(rig.hook_aborted(a));
  EXPECT_FALSE(rig.hook_aborted(b));
  EXPECT_EQ(cc.dynamic_deadlocks(), 1u);
  // a's release at t=21 grants b its request; b commits at 31, c at 50.
  EXPECT_TRUE(rb.committed);
  EXPECT_EQ(rb.committed_at, 31.0);
  EXPECT_TRUE(rc.committed);
  EXPECT_EQ(rc.committed_at, 50.0);
  std::string why;
  EXPECT_TRUE(cc.quiescent(&why)) << why;
}

// A waiter that is the only holder of the strongest-ceiling lock is not
// blocked by that lock: its blocking lock is the strongest one held by
// someone else. Here that makes a chain w -> x -> h, in which h inherits
// w's priority through the waiter x.
TEST(PcpTest, SoleHolderOfStrongestLockPassesInheritanceOn) {
  Kernel k;
  PriorityCeiling cc{k, 10};
  Rig rig{k, cc};
  CcTxn w = make_txn(1, 1), h = make_txn(2, 2), x = make_txn(3, 3);
  std::vector<std::pair<db::TxnId, std::int64_t>> hooks;
  rig.on_priority_changed = [&](const CcTxn& t) {
    hooks.emplace_back(t.id, t.effective_priority().key());
  };
  ScriptResult rw, rh, rx;
  // x locks 0 at t=0 and requests 1 at t=2; h (which outranks 0's
  // ceiling, x) locks 1 at t=1 and holds it until t=11, so x waits on h.
  spawn_scripted(rig, x, {{0, LockMode::kWrite}, {1, LockMode::kWrite}},
                 tu(0), tu(2), tu(0), rx);
  spawn_scripted(rig, h, {{1, LockMode::kWrite}}, tu(1), tu(10), tu(0), rh);
  // w arrives at t=3 declaring 0, which lifts 0's ceiling above 1's: 0 is
  // now the strongest-ceiling lock and x its only holder. w waits on x.
  spawn_scripted(rig, w, {{0, LockMode::kWrite}}, tu(3), tu(1), tu(0), rw);
  bool checked = false;
  k.schedule_in(tu(5), [&] {
    ASSERT_TRUE(w.blocked);
    ASSERT_TRUE(x.blocked);
    EXPECT_EQ(cc.rw_ceiling(0), w.base_priority);
    EXPECT_EQ(cc.rw_ceiling(1), h.base_priority);
    EXPECT_EQ(x.inherited, w.base_priority);
    EXPECT_EQ(h.inherited, w.base_priority);  // through x
    EXPECT_EQ(w.inherited, sim::Priority::lowest());
    checked = true;
  });
  k.run();
  EXPECT_TRUE(checked);
  // h commits at 11, x gets 1 then and commits at 13, w gets 0 at 13.
  EXPECT_EQ(rh.committed_at, 11.0);
  EXPECT_EQ(rx.committed_at, 13.0);
  EXPECT_EQ(rw.committed_at, 14.0);
  EXPECT_EQ(cc.dynamic_deadlocks(), 0u);
  // Before w: h inherits x's priority, weaker than its own (no hook).
  // w's block lifts x and h in one round (active-table order); h's end
  // and x's end each drop one.
  using Hook = std::pair<db::TxnId, std::int64_t>;
  ASSERT_EQ(hooks.size(), 4u);
  std::vector<Hook> sorted_round(hooks.begin(), hooks.begin() + 2);
  std::sort(sorted_round.begin(), sorted_round.end());
  EXPECT_EQ(sorted_round, (std::vector<Hook>{{h.id, 1}, {x.id, 1}}));
  EXPECT_EQ(std::vector<Hook>(hooks.begin() + 2, hooks.end()),
            (std::vector<Hook>{{h.id, 2}, {x.id, 3}}));
  std::string why;
  EXPECT_TRUE(cc.quiescent(&why)) << why;
}

// Property sweep: random transaction mixes with dynamic arrivals. Every
// run must terminate, every transaction must either commit or be one of
// the (rare) dynamic-arrival backstop victims, and the protocol state must
// drain completely.
class PcpPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static constexpr std::uint32_t kObjects = 12;
  static constexpr int kTxns = 40;

  // Spawns the seed's mix of kTxns transactions over kObjects objects,
  // arriving at random times in [0, 100].
  void spawn_mix(Rig& rig, std::vector<CcTxn>& txns,
                 std::vector<ScriptResult>& results) {
    sim::RandomStream rng{GetParam()};
    txns.assign(kTxns, CcTxn{});
    results.assign(kTxns, ScriptResult{});
    for (int i = 0; i < kTxns; ++i) {
      txns[i] = make_txn(static_cast<std::uint64_t>(i + 1),
                         rng.uniform_int(0, 1000));
      const auto size = static_cast<std::uint32_t>(rng.uniform_int(1, 5));
      auto objects = rng.sample_without_replacement(kObjects, size);
      std::vector<Operation> ops;
      const bool read_only = rng.bernoulli(0.4);
      for (auto o : objects) {
        ops.push_back(
            Operation{o, read_only ? LockMode::kRead : LockMode::kWrite});
      }
      spawn_scripted(rig, txns[i], ops,
                     Duration::units(rng.uniform_int(0, 100)),
                     Duration::units(rng.uniform_int(1, 4)),
                     Duration::units(rng.uniform_int(0, 3)), results[i]);
    }
  }
};

TEST_P(PcpPropertyTest, TerminatesAndDrainsUnderDynamicArrivals) {
  Kernel k;
  PriorityCeiling cc{k, kObjects};
  Rig rig{k, cc};
  std::vector<CcTxn> txns;
  std::vector<ScriptResult> results;
  spawn_mix(rig, txns, results);
  k.run();  // termination itself is the liveness property

  int aborted = 0;
  for (int i = 0; i < kTxns; ++i) {
    const bool ok = results[i].committed || rig.hook_aborted(txns[i]) ||
                    results[i].self_aborted;
    EXPECT_TRUE(ok) << "txn " << i << " neither committed nor aborted";
    if (!results[i].committed) ++aborted;
  }
  // The dynamic-arrival backstop is a rare event, not the common path.
  EXPECT_LE(cc.dynamic_deadlocks(), static_cast<std::uint64_t>(kTxns / 5));
  EXPECT_EQ(aborted, static_cast<int>(cc.dynamic_deadlocks()));
  EXPECT_EQ(cc.waiter_count(), 0u);
  EXPECT_EQ(cc.active_transactions(), 0u);
}

// Every protocol step re-runs inheritance except an acquire granted on the
// spot: it adds a lock without a new round, so until the next step that
// runs one, inherited priorities may lag what the current locks imply.
// Tracks, from the observer's events alone, whether the last step ran one.
class SettleTracker : public CcObserver {
 public:
  bool settled() const { return settled_; }

  void on_txn_begin(const CcTxn&) override { settle(); }
  void on_txn_end(const CcTxn&) override { settle(); }
  void on_release_all(const CcTxn&) override { settle(); }
  void on_block(const CcTxn&, db::ObjectId, LockMode,
                std::span<CcTxn* const>) override {
    settle();
  }
  void on_unblock(const CcTxn& txn) override {
    settle();
    unblocked_ = &txn;
  }
  // A queued grant follows its waiter's unblock inside a round; any other
  // grant is an immediate one.
  void on_grant(const CcTxn& txn, db::ObjectId, LockMode) override {
    if (unblocked_ != &txn) settled_ = false;
    unblocked_ = nullptr;
  }

 private:
  void settle() {
    settled_ = true;
    unblocked_ = nullptr;
  }
  bool settled_ = true;
  const CcTxn* unblocked_ = nullptr;
};

// Oracle for inheritance: at every unit, recompute each context's inherited
// priority from public state alone and compare (when the state is settled,
// see SettleTracker). The blocking lock of a waiter is the first strictly
// strongest locked object, in ascending id, that another context holds;
// holders inherit the urgency of every waiter they block, to a fixpoint. A
// shadow fed by the priority hook must match every effective priority at
// every unit, and no hook call may repeat a priority.
TEST_P(PcpPropertyTest, InheritanceMatchesOracleAtEveryUnit) {
  Kernel k;
  PriorityCeiling cc{k, kObjects};
  Rig rig{k, cc};
  SettleTracker tracker;
  cc.set_observer(&tracker);
  std::vector<CcTxn> txns;
  std::vector<ScriptResult> results;
  spawn_mix(rig, txns, results);

  std::vector<sim::Priority> shadow;
  for (const CcTxn& txn : txns) shadow.push_back(txn.effective_priority());
  rig.on_priority_changed = [&](const CcTxn& txn) {
    sim::Priority& seen = shadow.at(txn.id.value - 1);
    EXPECT_NE(seen, txn.effective_priority())
        << "hook without a change for txn " << txn.id.value;
    seen = txn.effective_priority();
  };

  auto oracle = [&] {
    std::vector<std::vector<std::size_t>> holders(kObjects);
    for (db::ObjectId o = 0; o < kObjects; ++o) {
      for (std::size_t t = 0; t < txns.size(); ++t) {
        if (cc.holds(txns[t], o, LockMode::kRead)) holders[o].push_back(t);
      }
    }
    std::vector<std::pair<std::size_t, std::optional<db::ObjectId>>> waits;
    for (std::size_t t = 0; t < txns.size(); ++t) {
      if (!txns[t].blocked) continue;
      std::optional<db::ObjectId> best;
      for (db::ObjectId o = 0; o < kObjects; ++o) {
        const auto ceiling = cc.rw_ceiling(o);
        if (!ceiling) continue;
        if (std::none_of(holders[o].begin(), holders[o].end(),
                         [&](std::size_t h) { return h != t; })) {
          continue;
        }
        if (!best || ceiling->higher_than(*cc.rw_ceiling(*best))) best = o;
      }
      waits.emplace_back(t, best);
    }
    std::vector<sim::Priority> inherited(txns.size(), sim::Priority::lowest());
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [t, blocking] : waits) {
        if (!blocking) continue;
        const sim::Priority urgency =
            sim::Priority::stronger(txns[t].base_priority, inherited[t]);
        for (const std::size_t h : holders[*blocking]) {
          if (h != t && urgency.higher_than(inherited[h])) {
            inherited[h] = urgency;
            changed = true;
          }
        }
      }
    }
    return inherited;
  };

  auto finished = [&] {
    for (std::size_t t = 0; t < txns.size(); ++t) {
      if (!results[t].committed && !results[t].self_aborted &&
          !rig.hook_aborted(txns[t])) {
        return false;
      }
    }
    return true;
  };
  int compared = 0;
  int units = 0;
  int inheriting = 0;
  std::function<void()> probe = [&] {
    ++units;
    for (std::size_t t = 0; t < txns.size(); ++t) {
      EXPECT_EQ(shadow[t], txns[t].effective_priority())
          << "txn " << t + 1 << " at " << k.now().as_units();
    }
    if (tracker.settled()) {
      ++compared;
      const std::vector<sim::Priority> expected = oracle();
      for (std::size_t t = 0; t < txns.size(); ++t) {
        EXPECT_EQ(txns[t].inherited, expected[t])
            << "txn " << t + 1 << " at " << k.now().as_units();
      }
      if (std::any_of(expected.begin(), expected.end(), [](sim::Priority p) {
            return p != sim::Priority::lowest();
          })) {
        ++inheriting;
      }
    }
    // The mixes drain within 400 units; a hang fails below, not here.
    if (!finished() && k.now().as_units() < 1000) {
      k.schedule_in(tu(1), sim::EventCallback{probe});
    }
  };
  k.schedule_in(tu(0), sim::EventCallback{probe});
  k.run();

  EXPECT_TRUE(finished());
  rig.abort_stranded();
  // About half the units are settled on these mixes; nearly all of those
  // have an inheritor.
  EXPECT_GT(compared * 4, units);
  EXPECT_GT(inheriting, 0) << "no compared unit had an inheritor";
  EXPECT_EQ(cc.waiter_count(), 0u);
  EXPECT_EQ(cc.active_transactions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcpPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 42, 1234, 99999));

// The Sha-Rajkumar-Lehoczky guarantees in the *static* setting the
// protocol was designed for (every transaction declared before any lock is
// taken): no deadlock can form — the dynamic-arrival backstop never fires —
// and at any instant a transaction is blocked through at most ONE lock
// held by lower-priority transactions (several simultaneous lower-priority
// blockers can only be co-readers of that one lock).
//
// Note the deliberate scope: the single-processor task-model corollary
// ("at most one lower-priority blocking interval over the whole lifetime")
// does not transfer to transactions whose I/O overlaps — between two of
// T's operations a lower-priority transaction may legitimately acquire a
// fresh lock (nothing else is locked at that moment) and block T's next
// request. The per-instant bound and deadlock freedom are what the
// database setting keeps, and what this sweep checks.
class PcpStaticTheoremTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcpStaticTheoremTest, StaticSetsNeverDeadlockAndBlockThroughOneLock) {
  Kernel k;
  constexpr std::uint32_t kObjects = 10;
  PriorityCeiling cc{k, kObjects};
  Rig rig{k, cc};
  sim::RandomStream rng{GetParam()};

  constexpr int kTxns = 16;
  std::vector<CcTxn> txns(kTxns);
  std::vector<ScriptResult> results(kTxns);
  // Truly static task set: every transaction registers its declaration at
  // t=0 and only starts acquiring at t=1, so all ceilings are in place
  // before the first lock is taken (the setting the theorem assumes).
  auto static_body = [](Rig& rig, CcTxn& ctx, std::vector<Operation> ops,
                        Duration per_op, Duration tail,
                        ScriptResult& result) -> sim::Task<void> {
    ctx.access = AccessSet::from_operations(ops);
    rig.cc().on_begin(ctx);
    co_await rig.kernel().delay(Duration::units(1));
    std::optional<AbortReason> aborted;
    for (const Operation& op : ops) {
      aborted = co_await rig.cc().acquire(ctx, op.object, op.mode);
      if (aborted) break;
      co_await rig.kernel().delay(per_op);
    }
    if (aborted) {
      result.self_aborted = true;
      result.self_abort_reason = *aborted;
    } else {
      co_await rig.kernel().delay(tail);
      result.committed = true;
      result.committed_at = rig.kernel().now().as_units();
    }
    rig.cc().release_all(ctx);
    rig.cc().on_end(ctx);
  };
  for (int i = 0; i < kTxns; ++i) {
    txns[i] = make_txn(static_cast<std::uint64_t>(i + 1),
                       rng.uniform_int(0, 1000));
    const auto size = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
    auto objects = rng.sample_without_replacement(kObjects, size);
    std::vector<Operation> ops;
    const bool read_only = rng.bernoulli(0.3);
    for (auto o : objects) {
      ops.push_back(Operation{o, read_only ? LockMode::kRead : LockMode::kWrite});
    }
    sim::ProcessId pid = k.spawn(
        "txn-" + std::to_string(i + 1),
        static_body(rig, txns[i], std::move(ops),
                    Duration::units(rng.uniform_int(1, 5)),
                    Duration::units(rng.uniform_int(0, 3)), results[i]));
    rig.track(txns[i], pid);
  }

  // Per-instant theorem check: for every active transaction, the locks
  // held by lower-priority transactions that could deny it never number
  // more than one.
  int worst = 0;
  std::vector<bool> active(kTxns, false);
  for (int i = 0; i < kTxns; ++i) {
    // track activity via the rig's results (committed => inactive)
    active[i] = true;
  }
  for (int t = 0; t <= 150; ++t) {
    k.schedule_in(Duration::units(t), [&] {
      for (int i = 0; i < kTxns; ++i) {
        if (results[i].committed || results[i].self_aborted) continue;
        const int locks =
            static_cast<int>(cc.lower_priority_blocking_txns(txns[i]));
        worst = std::max(worst, locks);
      }
    });
  }
  k.run();

  for (int i = 0; i < kTxns; ++i) {
    EXPECT_TRUE(results[i].committed) << "txn " << i;
  }
  EXPECT_LE(worst, 1)
      << "a transaction faced more than one lower-priority blocking transaction";
  EXPECT_EQ(cc.dynamic_deadlocks(), 0u);
  EXPECT_EQ(cc.protocol_aborts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcpStaticTheoremTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace rtdb::cc
