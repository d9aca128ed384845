// RtLockTable as an adapter: the protocol decisions come from the cc::
// controller it hosts, and the table only supplies the waiting — a parked
// thread, woken by a grant, an abort, or its deadline. Single-threaded
// cases drive the table from the test thread on a one-worker backend, as
// perfbench's probe does; the two-thread cases park a second thread.

#include "rt/lock_table.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "rt/thread_backend.hpp"

namespace rtdb::rt {
namespace {

using cc::AbortReason;
using cc::LockMode;
using cc::Operation;
using core::Protocol;

constexpr std::uint64_t kUnitNanos = 10'000;

// Lower key = higher priority (earliest deadline first).
void init(RtTxn& txn, std::uint64_t id, std::int64_t key,
          std::vector<Operation> ops) {
  txn.id = db::TxnId{id};
  txn.base_priority = sim::Priority{key, static_cast<std::uint32_t>(id)};
  txn.access = cc::AccessSet::from_operations(std::move(ops));
}

RtLockTable::Options options(Protocol protocol, bool audit = false) {
  RtLockTable::Options o;
  o.protocol = protocol;
  o.object_count = 4;
  o.audit = audit;
  return o;
}

// A deadline a few units out: an acquire that wrongly parks returns
// kDeadlineMiss instead of hanging the test.
sim::TimePoint soon(const ThreadBackend& backend) {
  return backend.now() + sim::Duration::units(50);
}

void finish(RtLockTable& table, RtTxn& txn) {
  table.release_all(txn);
  table.on_end(txn);
}

void expect_quiescent(const RtLockTable& table) {
  std::string why;
  EXPECT_TRUE(table.quiescent(&why)) << why;
}

// Spins (bounded) until the table has seen `n` blocked requests: the
// waiter thread is then parked, or about to park, under the latch order.
bool await_blocks(const RtLockTable& table, std::uint64_t n) {
  for (int i = 0; i < 20'000; ++i) {
    if (table.stats().blocks >= n) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return false;
}

// The wound is immediate: the abort hook kills the holder's process and
// releases its locks on its behalf, so the higher-priority request is
// granted in the same call; the holder learns of it at its next entry.
void wound_is_granted_without_parking(Protocol protocol, RtTxn& holder,
                                      RtTxn& requester) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(protocol, true), backend};
  table.on_begin(holder);
  EXPECT_EQ(table.acquire(holder, 0, LockMode::kWrite), std::nullopt);
  table.on_begin(requester);
  requester.deadline = soon(backend);
  EXPECT_EQ(table.acquire(requester, 0, LockMode::kWrite), std::nullopt);
  EXPECT_EQ(RtLockTable::checkpoint(holder), AbortReason::kWounded);
  EXPECT_EQ(table.release_all(holder), AbortReason::kWounded);
  EXPECT_EQ(table.acquire(holder, 1, LockMode::kWrite), AbortReason::kWounded);
  table.on_end(holder);
  EXPECT_EQ(table.release_all(requester), std::nullopt);
  table.on_end(requester);
  const RtLockStats stats = table.stats();
  EXPECT_EQ(stats.wounds, 1u);
  EXPECT_EQ(stats.audit_violations, 0u) << table.first_audit_failure();
  expect_quiescent(table);
}

TEST(RtLockTableTest, HighPriorityWoundsTheLowerHolderWithoutParking) {
  RtTxn low, high;
  init(low, 1, 9, {{0, LockMode::kWrite}, {1, LockMode::kWrite}});
  init(high, 2, 1, {{0, LockMode::kWrite}});
  wound_is_granted_without_parking(Protocol::kHighPriority, low, high);
}

TEST(RtLockTableTest, WoundWaitWoundsTheYoungerHolderWithoutParking) {
  RtTxn young, old;
  init(young, 2, 1, {{0, LockMode::kWrite}, {1, LockMode::kWrite}});
  init(old, 1, 9, {{0, LockMode::kWrite}});
  wound_is_granted_without_parking(Protocol::kWoundWait, young, old);
}

TEST(RtLockTableTest, WaitDieKillsTheYoungerRequesterWithoutParking) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(Protocol::kWaitDie, true), backend};
  RtTxn old, young;
  init(old, 1, 1, {{0, LockMode::kWrite}});
  init(young, 2, 9, {{0, LockMode::kWrite}});
  table.on_begin(old);
  EXPECT_EQ(table.acquire(old, 0, LockMode::kWrite), std::nullopt);
  table.on_begin(young);
  young.deadline = soon(backend);
  EXPECT_EQ(table.acquire(young, 0, LockMode::kWrite), AbortReason::kAgeBased);
  // A self-abort is the requester's own: nothing was ended on its behalf.
  EXPECT_EQ(table.release_all(young), std::nullopt);
  table.on_end(young);
  finish(table, old);
  EXPECT_EQ(table.stats().blocks, 0u);
  EXPECT_EQ(table.stats().protocol_aborts, 1u);
  EXPECT_EQ(table.stats().audit_violations, 0u);
  expect_quiescent(table);
}

TEST(RtLockTableTest, TimestampOrderingRejectsALateWrite) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(Protocol::kTimestampOrdering, true), backend};
  RtTxn first, second;
  init(first, 1, 1, {{0, LockMode::kWrite}});
  init(second, 2, 1, {{0, LockMode::kRead}});
  table.on_begin(first);   // timestamp 1
  table.on_begin(second);  // timestamp 2
  EXPECT_EQ(table.acquire(second, 0, LockMode::kRead), std::nullopt);
  EXPECT_EQ(table.acquire(first, 0, LockMode::kWrite),
            AbortReason::kTimestampOrder);
  finish(table, first);
  finish(table, second);
  EXPECT_EQ(table.stats().audit_violations, 0u);
  expect_quiescent(table);
}

// A parked waiter is granted by the holder's release on another thread;
// the monitor measures the blocking span in backend time.
TEST(RtLockTableTest, ParkedCeilingWaiterIsGrantedOnRelease) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(Protocol::kPriorityCeiling, true), backend};
  RtTxn holder, waiter;
  init(holder, 1, 9, {{0, LockMode::kWrite}});
  init(waiter, 2, 1, {{0, LockMode::kWrite}});
  table.on_begin(holder);
  table.on_begin(waiter);
  EXPECT_EQ(table.acquire(holder, 0, LockMode::kWrite), std::nullopt);

  std::optional<AbortReason> outcome = AbortReason::kSystem;
  std::thread thread{
      [&] { outcome = table.acquire(waiter, 0, LockMode::kWrite); }};
  const bool parked = await_blocks(table, 1);
  backend.advance(sim::Duration::units(2));
  finish(table, holder);
  thread.join();
  ASSERT_TRUE(parked);
  EXPECT_EQ(outcome, std::nullopt);
  finish(table, waiter);

  const RtLockStats stats = table.stats();
  EXPECT_EQ(stats.grants, 2u);
  EXPECT_GT(stats.max_block_span, sim::Duration::zero());
  EXPECT_EQ(stats.audit_violations, 0u) << table.first_audit_failure();
  expect_quiescent(table);
}

// The deadline bounds a park: the waiter withdraws its request and
// returns kDeadlineMiss, and the table drains.
TEST(RtLockTableTest, ParkedWaiterReturnsDeadlineMissAtItsDeadline) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(Protocol::kTwoPhase, true), backend};
  RtTxn holder, waiter;
  init(holder, 1, 1, {{0, LockMode::kWrite}});
  init(waiter, 2, 1, {{0, LockMode::kWrite}});
  table.on_begin(holder);
  EXPECT_EQ(table.acquire(holder, 0, LockMode::kWrite), std::nullopt);
  table.on_begin(waiter);
  waiter.deadline = backend.now() + sim::Duration::units(5);

  std::optional<AbortReason> outcome;
  std::thread thread{
      [&] { outcome = table.acquire(waiter, 0, LockMode::kWrite); }};
  thread.join();
  EXPECT_EQ(outcome, AbortReason::kDeadlineMiss);
  EXPECT_GE(backend.now(), waiter.deadline);
  finish(table, waiter);
  finish(table, holder);
  EXPECT_EQ(table.stats().audit_violations, 0u);
  expect_quiescent(table);
}

// An abort reaches a parked victim: the hook kills its blocked acquire,
// releases what it holds, and wakes the thread, which returns the reason.
TEST(RtLockTableTest, WoundWakesAParkedVictim) {
  ThreadBackend backend{{1, kUnitNanos}};
  RtLockTable table{options(Protocol::kHighPriority, true), backend};
  RtTxn high, mid, low;
  init(high, 1, 1, {{1, LockMode::kWrite}});
  init(mid, 2, 5, {{0, LockMode::kWrite}});
  init(low, 3, 9, {{0, LockMode::kWrite}, {1, LockMode::kWrite}});
  table.on_begin(high);
  table.on_begin(mid);
  table.on_begin(low);
  EXPECT_EQ(table.acquire(high, 1, LockMode::kWrite), std::nullopt);
  EXPECT_EQ(table.acquire(low, 0, LockMode::kWrite), std::nullopt);

  std::optional<AbortReason> outcome;
  std::thread thread{
      [&] { outcome = table.acquire(low, 1, LockMode::kWrite); }};
  const bool parked = await_blocks(table, 1);
  mid.deadline = soon(backend);
  EXPECT_EQ(table.acquire(mid, 0, LockMode::kWrite), std::nullopt);
  thread.join();
  ASSERT_TRUE(parked);
  EXPECT_EQ(outcome, AbortReason::kWounded);
  EXPECT_EQ(table.release_all(low), AbortReason::kWounded);
  table.on_end(low);
  finish(table, mid);
  finish(table, high);
  EXPECT_EQ(table.stats().wounds, 1u);
  EXPECT_EQ(table.stats().audit_violations, 0u) << table.first_audit_failure();
  expect_quiescent(table);
}

}  // namespace
}  // namespace rtdb::rt
