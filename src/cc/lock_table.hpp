#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cc/txn_ctx.hpp"
#include "cc/types.hpp"
#include "db/types.hpp"
#include "sim/inline_vec.hpp"
#include "sim/semaphore.hpp"

namespace rtdb::cc {

// Conventional per-object lock table used by the 2PL-family protocols
// (plain, priority-mode, priority inheritance, high-priority). Read locks
// are shared, write locks exclusive.
//
// The table only manages lock state and wait queues; blocking, deadlock
// handling, and inheritance live in the protocols.
class LockTable {
 public:
  // How waiters queue: arrival order (the paper's "two-phase locking
  // protocol without priority mode", L) or by transaction priority (the
  // "priority mode", P).
  enum class QueuePolicy : std::uint8_t { kFifo, kPriority };

  explicit LockTable(QueuePolicy policy) : policy_(policy) {}

  QueuePolicy policy() const { return policy_; }

  // One waiting request; lives in the requester's acquire() frame.
  struct Request {
    CcTxn* txn = nullptr;
    db::ObjectId object = 0;
    LockMode mode = LockMode::kRead;
    sim::Semaphore* wakeup = nullptr;
    bool granted = false;
    std::uint64_t seq = 0;  // arrival order
  };

  // Grants immediately when `mode` is compatible with the holders and no
  // queued waiter takes precedence; otherwise returns false (caller
  // enqueues). An immediate grant records the holder.
  bool try_grant(CcTxn& txn, db::ObjectId object, LockMode mode);

  // Adds the request to the object's queue per the policy.
  void enqueue(Request& request);

  // Removes a waiting request (requester killed or aborted) and promotes
  // any waiters its departure unblocks.
  void cancel(Request& request);

  // Releases every lock `txn` holds; grantable waiters are granted (their
  // `granted` flag set and wakeup semaphores released). Returns the objects
  // whose state changed.
  std::vector<db::ObjectId> release_all(CcTxn& txn);

  // Invoked (if set) for every request the moment it is granted from the
  // queue, before its process resumes. Protocols use it to end the
  // requester's block and drop it from their own waiting bookkeeping
  // without racing the wake-up.
  void set_grant_observer(std::function<void(Request&)> observer) {
    on_grant_ = std::move(observer);
  }

  // The requests currently queued on `object`, in queue order.
  std::vector<Request*> queued_requests(db::ObjectId object) const;

  // ---- introspection (deadlock detection, wound decisions) ----
  // Current holders of the object's lock.
  std::vector<CcTxn*> holders_of(db::ObjectId object) const;
  // Transactions a request must wait for: incompatible holders plus
  // incompatible requests queued ahead of it.
  std::vector<CcTxn*> blockers_of(const Request& request) const;

  // Allocation-free variant of blockers_of: visits each blocker in the
  // same order (incompatible holders, then incompatible requests queued
  // ahead). `fn` must not mutate the table.
  template <typename Fn>
  void for_each_blocker(const Request& request, Fn&& fn) const {
    auto it = locks_.find(request.object);
    if (it == locks_.end()) return;
    const ObjectLock& lock = it->second;
    for (const auto& [txn, mode] : lock.holders) {
      if (txn != request.txn && !compatible(mode, request.mode)) fn(*txn);
    }
    for (const Request* queued : lock.queue) {
      if (queued == &request) break;  // only requests ahead of ours
      if (queued->txn != request.txn &&
          !compatible(queued->mode, request.mode)) {
        fn(*queued->txn);
      }
    }
  }

  // Whether txn holds a lock on object (any mode).
  bool holds(const CcTxn& txn, db::ObjectId object) const;

  std::size_t held_objects(const CcTxn& txn) const;
  std::size_t waiting_requests() const { return waiting_; }
  // Objects with any lock state at all (held or queued); idle entries are
  // erased eagerly, so a drained system must report zero.
  std::size_t locked_objects() const { return locks_.size(); }

 private:
  // Holder/waiter populations are tiny (a handful of read sharers, short
  // queues), so both live inline in the table entry.
  struct ObjectLock {
    sim::InlineVec<std::pair<CcTxn*, LockMode>, 4> holders;
    sim::InlineVec<Request*, 4> queue;  // maintained in policy order
  };

  bool compatible_with_holders(const ObjectLock& lock, const CcTxn& txn,
                               LockMode mode) const;
  // True when `a` should queue ahead of `b` under the current policy.
  bool precedes(const Request& a, const Request& b) const;
  // Grants the longest grantable prefix of the queue.
  void promote(db::ObjectId object, ObjectLock& lock);
  void erase_if_idle(db::ObjectId object);

  QueuePolicy policy_;
  std::unordered_map<db::ObjectId, ObjectLock> locks_;
  std::function<void(Request&)> on_grant_;
  std::uint64_t next_seq_ = 0;
  std::size_t waiting_ = 0;
};

}  // namespace rtdb::cc
