#include "cc/tso.hpp"

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

TEST(TsoTest, TimestampsAssignedInBeginOrderFreshPerAttempt) {
  Kernel k;
  TimestampOrdering cc{k};
  CcTxn a = make_txn(1, 1), b = make_txn(2, 2);
  cc.on_begin(a);
  cc.on_begin(b);
  EXPECT_EQ(cc.timestamp_of(a.id), 1u);
  EXPECT_EQ(cc.timestamp_of(b.id), 2u);
  EXPECT_EQ(cc.timestamp_of(a.id), 1u);  // stable within the attempt
  cc.on_end(a);
  cc.on_begin(a);  // restarted attempt draws a fresh timestamp
  EXPECT_EQ(cc.timestamp_of(a.id), 3u);
}

TEST(TsoTest, InOrderOperationsSucceed) {
  Kernel k;
  TimestampOrdering cc{k};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}}, tu(0), tu(1), tu(0), r1);
  spawn_scripted(rig, t2, {{0, LockMode::kRead}}, tu(5), tu(1), tu(0), r2);
  k.run();
  EXPECT_TRUE(r1.committed);
  EXPECT_TRUE(r2.committed);
  EXPECT_EQ(cc.rejections(), 0u);
}

TEST(TsoTest, LateReadUnderNewerWriteRejected) {
  Kernel k;
  TimestampOrdering cc{k};
  Rig rig{k, cc};
  // t1 begins first (ts 1) but performs its read late; t2 (ts 2) writes
  // the object in between: t1's read must be rejected.
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  auto slow_reader = [](Rig& rig, CcTxn& ctx, ScriptResult& r) -> sim::Task<void> {
    ctx.access = AccessSet::reads_then_writes({0}, {});
    rig.cc().on_begin(ctx);
    co_await rig.kernel().delay(Duration::units(10));
    if (auto a = co_await rig.cc().acquire(ctx, 0, LockMode::kRead)) {
      r.self_aborted = true;
      r.self_abort_reason = *a;
    } else {
      r.committed = true;
    }
    rig.cc().release_all(ctx);
    rig.cc().on_end(ctx);
  };
  rig.track(t1, k.spawn("t1", slow_reader(rig, t1, r1)));
  k.schedule_in(tu(1), [&] {});  // keep event order explicit
  spawn_scripted(rig, t2, {{0, LockMode::kWrite}}, tu(2), tu(1), tu(0), r2);
  k.run();
  EXPECT_TRUE(r2.committed);
  EXPECT_TRUE(r1.self_aborted);
  EXPECT_EQ(r1.self_abort_reason, AbortReason::kTimestampOrder);
  EXPECT_EQ(cc.rejections(), 1u);
}

TEST(TsoTest, LateWriteUnderNewerReadRejected) {
  Kernel k;
  TimestampOrdering cc{k};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  auto slow_writer = [](Rig& rig, CcTxn& ctx, ScriptResult& r) -> sim::Task<void> {
    ctx.access = AccessSet::reads_then_writes({}, {0});
    rig.cc().on_begin(ctx);
    co_await rig.kernel().delay(Duration::units(10));
    if (co_await rig.cc().acquire(ctx, 0, LockMode::kWrite)) {
      r.self_aborted = true;
    } else {
      r.committed = true;
    }
    rig.cc().release_all(ctx);
    rig.cc().on_end(ctx);
  };
  rig.track(t1, k.spawn("t1", slow_writer(rig, t1, r1)));
  spawn_scripted(rig, t2, {{0, LockMode::kRead}}, tu(2), tu(1), tu(0), r2);
  k.run();
  EXPECT_TRUE(r2.committed);
  EXPECT_TRUE(r1.self_aborted);
}

TEST(TsoTest, NeverBlocks) {
  Kernel k;
  TimestampOrdering cc{k};
  Rig rig{k, cc};
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  ScriptResult r1, r2;
  spawn_scripted(rig, t1, {{0, LockMode::kWrite}}, tu(0), tu(100), tu(0), r1);
  spawn_scripted(rig, t2, {{0, LockMode::kWrite}}, tu(1), tu(1), tu(0), r2);
  k.run();
  // t2's write (newer ts) succeeds immediately without waiting for t1.
  EXPECT_EQ(r2.committed_at, 2.0);
  EXPECT_EQ(cc.blocks(), 0u);
}

TEST(TsoTest, RestartWithFreshTimestampSucceedsAgainstOldConflict) {
  Kernel k;
  TimestampOrdering cc{k};
  Rig rig{k, cc};
  // Attempt 1 of t1 (ts 1) is rejected reading under t2's newer write
  // (ts 2); the restart draws ts 3 > 2 and succeeds — the reason restarts
  // take fresh timestamps.
  CcTxn t1 = make_txn(1, 1), t2 = make_txn(2, 2);
  cc.on_begin(t1);
  cc.on_begin(t2);
  bool write_ok = false;
  bool first_rejected = false;
  bool second_ok = false;
  k.spawn("seq", [](Kernel&, TimestampOrdering& cc, CcTxn& t1, CcTxn& t2,
                    bool& write_ok, bool& first_rejected,
                    bool& second_ok) -> sim::Task<void> {
    // wts(0) = 2
    write_ok = !(co_await cc.acquire(t2, 0, LockMode::kWrite)).has_value();
    first_rejected = (co_await cc.acquire(t1, 0, LockMode::kRead)).has_value();
    cc.on_end(t1);   // abort attempt 1
    cc.on_begin(t1); // restart: fresh timestamp (3)
    second_ok = !(co_await cc.acquire(t1, 0, LockMode::kRead)).has_value();
    cc.on_end(t1);
    cc.on_end(t2);
  }(k, cc, t1, t2, write_ok, first_rejected, second_ok));
  k.run();
  EXPECT_TRUE(write_ok);
  EXPECT_TRUE(first_rejected);
  EXPECT_TRUE(second_ok);
}

}  // namespace
}  // namespace rtdb::cc
