#pragma once

#include <cstdint>
#include <span>

#include "cc/txn_ctx.hpp"
#include "cc/types.hpp"
#include "db/types.hpp"

namespace rtdb::cc {

// Narrow observation interface onto a ConcurrencyController: one callback
// per protocol event, fired synchronously at the point the protocol's own
// state changes. The conformance checker (src/check) implements it to
// shadow the protocol and audit its invariants online.
//
// Contract:
//   * Callbacks are pure observations — they must not call back into the
//     controller or mutate any CcTxn.
//   * The CcTxn reference is only valid for the duration of the call;
//     observers copy what they keep.
//   * begin/end bracket one attempt; a restarted transaction re-enters
//     through on_txn_begin with the same id and a higher attempt number.
//   * on_unblock fires on every exit from a blocked wait — grant, abort,
//     or kill — exactly once per on_block.
//
// All methods default to no-ops so observers implement only the events
// their rules need. Controllers hold a raw pointer and skip the virtual
// dispatch entirely when no observer is attached (the disabled path is one
// null check; no protocol logic changes).
class CcObserver {
 public:
  virtual ~CcObserver() = default;

  virtual void on_txn_begin(const CcTxn& txn) { (void)txn; }
  virtual void on_txn_end(const CcTxn& txn) { (void)txn; }

  // A lock was granted (immediately or after a wait).
  virtual void on_grant(const CcTxn& txn, db::ObjectId object, LockMode mode) {
    (void)txn;
    (void)object;
    (void)mode;
  }
  // The transaction blocked on `object`; `blockers` are the transactions
  // it waits for at this instant (holders and queued-ahead requests).
  virtual void on_block(const CcTxn& txn, db::ObjectId object, LockMode mode,
                        std::span<CcTxn* const> blockers) {
    (void)txn;
    (void)object;
    (void)mode;
    (void)blockers;
  }
  virtual void on_unblock(const CcTxn& txn) { (void)txn; }
  // release_all completed: the transaction holds nothing here anymore.
  virtual void on_release_all(const CcTxn& txn) { (void)txn; }
  // The protocol decided to abort `victim` (wound, deadlock victim, die).
  // For self-aborts the requester's acquire returns the reason after this
  // call.
  virtual void on_abort(db::TxnId victim, AbortReason reason) {
    (void)victim;
    (void)reason;
  }
  // Failover state reconstruction installed a lock without the grant rule
  // (the previous manager already ran it). See PriorityCeiling::adopt.
  virtual void on_adopt(const CcTxn& txn, db::ObjectId object, LockMode mode) {
    (void)txn;
    (void)object;
    (void)mode;
  }
  // Timestamp-ordering access decision (TSO holds no locks, so grants and
  // rejections both flow through this one event).
  virtual void on_tso_access(const CcTxn& txn, db::ObjectId object,
                             LockMode mode, std::uint64_t ts, bool accepted) {
    (void)txn;
    (void)object;
    (void)mode;
    (void)ts;
    (void)accepted;
  }
};

}  // namespace rtdb::cc
