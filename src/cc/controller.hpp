#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "cc/observer.hpp"
#include "cc/txn_ctx.hpp"
#include "cc/types.hpp"
#include "db/types.hpp"
#include "sim/kernel.hpp"
#include "sim/task.hpp"

namespace rtdb::cc {

// Callbacks a controller uses to act on the rest of the system.
struct ControllerHooks {
  // Abort a transaction (deadlock victim, wound). The callee synchronously
  // terminates the victim's attempt — releasing its locks — and arranges
  // its restart. Never called for the running transaction: a protocol
  // whose victim is the requester itself (2PL's requester-victim, PCP's
  // backstop, wait-die, TSO) returns the reason from acquire() instead.
  std::function<void(db::TxnId victim, AbortReason reason)> abort_txn;
  // The transaction's effective (inherited) priority changed; the callee
  // propagates it to the CPU scheduler.
  std::function<void(const CcTxn& txn)> priority_changed;
};

// A synchronization protocol instance managing the data of one site.
//
// Contract, in execution order for each transaction attempt:
//   on_begin(t)                      once, before the first acquire
//   acquire(t, o, m)                 may suspend; returns nullopt once the
//                                    lock is granted, or the reason the
//                                    attempt must abort (self-abort). A
//                                    kill while blocked destroys it in
//                                    place; its guards undo the wait.
//   release_all(t)                   at commit or abort; never blocks
//   on_end(t)                        once, after release_all
//
// Two-phase rule: protocols may assume no acquire() follows release_all().
class ConcurrencyController {
 public:
  explicit ConcurrencyController(sim::Kernel& kernel) : kernel_(kernel) {}
  virtual ~ConcurrencyController() = default;

  ConcurrencyController(const ConcurrencyController&) = delete;
  ConcurrencyController& operator=(const ConcurrencyController&) = delete;

  void set_hooks(ControllerHooks hooks) { hooks_ = std::move(hooks); }

  // Attach a conformance observer (nullptr detaches). Observation is
  // purely passive: with no observer every notify_* helper is a single
  // null-pointer check, so the protocol paths are unchanged.
  void set_observer(CcObserver* observer) { observer_ = observer; }
  CcObserver* observer() const { return observer_; }

  // Lifecycle entry points (template methods): the public face notifies
  // the observer around the protocol-specific do_* hooks, so no protocol
  // can forget to report a begin/release/end event. The notification comes
  // first: the do_* body may synchronously grant queued waiters (PCP's
  // stabilize()), and those grant events must see the lifecycle transition
  // already applied — the same order the protocol's own state changes in.
  void on_begin(CcTxn& txn) {
    if (observer_ != nullptr) observer_->on_txn_begin(txn);
    do_begin(txn);
  }
  void release_all(CcTxn& txn) {
    if (observer_ != nullptr) observer_->on_release_all(txn);
    do_release_all(txn);
  }
  void on_end(CcTxn& txn) {
    if (observer_ != nullptr) observer_->on_txn_end(txn);
    do_end(txn);
  }

  virtual sim::Task<std::optional<AbortReason>> acquire(
      CcTxn& txn, db::ObjectId object, LockMode mode) = 0;

  virtual std::string_view name() const = 0;

  // Post-run invariant hook: with every transaction drained the protocol
  // should hold no locks, queue no waiters, and have reset any derived
  // state (ceilings). Protocols override to audit their internals; `why`
  // (when given) receives a description of the first violation.
  virtual bool quiescent(std::string* why = nullptr) const {
    (void)why;
    return true;
  }

  // ---- aggregate counters ----
  std::uint64_t grants() const { return grants_; }
  std::uint64_t blocks() const { return blocks_; }
  std::uint64_t protocol_aborts() const { return protocol_aborts_; }

 protected:
  // Protocol-specific lifecycle behaviour behind the public template
  // methods above.
  virtual void do_begin(CcTxn& txn) { (void)txn; }
  virtual void do_release_all(CcTxn& txn) = 0;
  virtual void do_end(CcTxn& txn) { (void)txn; }

  // Blocking bookkeeping shared by all protocols. end_block doubles as the
  // single unblock observation point: every exit from a blocked wait —
  // grant, abort, kill — funnels through it.
  void begin_block(CcTxn& txn) {
    txn.blocked = true;
    txn.blocked_since = kernel_.now();
    ++txn.block_count;
    ++blocks_;
  }
  void end_block(CcTxn& txn) {
    if (!txn.blocked) return;
    txn.blocked = false;
    txn.blocked_total += kernel_.now() - txn.blocked_since;
    if (observer_ != nullptr) observer_->on_unblock(txn);
  }

  // Event observation helpers for the protocol implementations.
  void notify_grant(const CcTxn& txn, db::ObjectId object, LockMode mode) {
    if (observer_ != nullptr) observer_->on_grant(txn, object, mode);
  }
  void notify_block(const CcTxn& txn, db::ObjectId object, LockMode mode,
                    std::span<CcTxn* const> blockers) {
    if (observer_ != nullptr) observer_->on_block(txn, object, mode, blockers);
  }
  void notify_abort(db::TxnId victim, AbortReason reason) {
    if (observer_ != nullptr) observer_->on_abort(victim, reason);
  }
  void notify_adopt(const CcTxn& txn, db::ObjectId object, LockMode mode) {
    if (observer_ != nullptr) observer_->on_adopt(txn, object, mode);
  }
  void notify_tso_access(const CcTxn& txn, db::ObjectId object, LockMode mode,
                         std::uint64_t ts, bool accepted) {
    if (observer_ != nullptr) {
      observer_->on_tso_access(txn, object, mode, ts, accepted);
    }
  }

  // Updates a transaction's inherited priority, notifying the scheduler
  // when the effective priority actually changes.
  void set_inherited(CcTxn& txn, sim::Priority inherited) {
    const sim::Priority before = txn.effective_priority();
    txn.inherited = inherited;
    if (txn.effective_priority() != before && hooks_.priority_changed) {
      hooks_.priority_changed(txn);
    }
  }

  void count_grant() { ++grants_; }
  void count_protocol_abort() { ++protocol_aborts_; }

  sim::Kernel& kernel_;
  ControllerHooks hooks_;
  CcObserver* observer_ = nullptr;

 private:
  std::uint64_t grants_ = 0;
  std::uint64_t blocks_ = 0;
  std::uint64_t protocol_aborts_ = 0;
};

}  // namespace rtdb::cc
