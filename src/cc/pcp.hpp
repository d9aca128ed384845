#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cc/controller.hpp"
#include "sim/inline_vec.hpp"
#include "sim/semaphore.hpp"

namespace rtdb::cc {

// The priority ceiling protocol of §3.2 (curve "C" in Figures 2-3),
// adapted — as in the paper — to a database setting where transactions
// enter and leave dynamically: the per-object ceilings are derived from the
// declared read/write sets of the *active* transactions.
//
// Definitions (paper, §3.2):
//   write-priority ceiling    of O = priority of the highest-priority
//                                    active transaction that may write O
//   absolute-priority ceiling of O = ... that may read or write O
//   rw-priority ceiling       of O = absolute ceiling while O is
//                                    write-locked; write ceiling while O is
//                                    read-locked (set dynamically)
//
// Grant rule: a transaction T may lock O iff T's priority is strictly
// higher than the highest rw-ceiling among all objects currently locked by
// transactions other than T. Otherwise T blocks on the holder(s) of that
// highest-ceiling lock, which inherit T's priority (transitively).
//
// Guarantees exercised by the tests: no deadlock, and each transaction is
// blocked by at most one lower-priority transaction at any instant.
//
// Options::exclusive_only is the ablation from the paper's conclusion
// ("the analytic study ... read and write semantics of a lock may lead to
// worse performance ... than exclusive semantics"): every lock is treated
// as a write lock.
//
// Dynamic-arrival caveat (documented in DESIGN.md): the classic
// deadlock-freedom proof assumes the ceilings are fixed before any lock is
// taken. With transactions arriving dynamically, a newcomer's declaration
// *raises* the ceiling of an object that is already locked, which can
// retroactively invalidate the grant-time invariant and (rarely) close a
// ceiling-blocking cycle. In the paper's full system such a cycle simply
// dissolves when a participant's hard deadline expires; at the protocol
// layer this implementation additionally runs a backstop, always on, that
// detects the cycle and aborts its lowest-priority member, counted in
// dynamic_deadlocks(). For static task sets — every scenario from the
// paper's examples — the backstop never fires, which the tests assert.
class PriorityCeiling : public ConcurrencyController {
 public:
  struct Options {
    bool exclusive_only = false;
  };

  PriorityCeiling(sim::Kernel& kernel, std::uint32_t object_count)
      : PriorityCeiling(kernel, object_count, Options{}) {}
  PriorityCeiling(sim::Kernel& kernel, std::uint32_t object_count,
                  Options options);
  ~PriorityCeiling() override;

  sim::Task<std::optional<AbortReason>> acquire(CcTxn& txn, db::ObjectId object,
                                                LockMode mode) override;
  std::string_view name() const override;
  bool quiescent(std::string* why = nullptr) const override;

  // True when `txn` already holds a lock on `object` satisfying `mode`
  // (a held write lock satisfies a read request, not vice versa). Used by
  // the failover path to make re-issued acquire requests idempotent.
  bool holds(const CcTxn& txn, db::ObjectId object, LockMode mode) const;
  // Failover state reconstruction: installs a lock the transaction was
  // already granted by the failed manager, without the grant rule (the old
  // manager applied it when the lock was first given out). No-op when the
  // lock is already held. `txn` must be active (on_begin seen).
  void adopt(CcTxn& txn, db::ObjectId object, LockMode mode);

  // ---- introspection (tests, monitors) ----
  sim::Priority write_ceiling(db::ObjectId object) const;
  sim::Priority absolute_ceiling(db::ObjectId object) const;
  // rw ceiling of a currently locked object; nullopt when unlocked.
  std::optional<sim::Priority> rw_ceiling(db::ObjectId object) const;
  bool is_locked(db::ObjectId object) const;
  std::size_t active_transactions() const { return active_.size(); }
  std::size_t waiter_count() const { return waiters_.size(); }
  // Total times a transaction was denied a lock on an *unlocked* object —
  // the "insurance premium" of the total-ordering approach.
  std::uint64_t ceiling_denials() const { return ceiling_denials_; }
  // Ceiling-blocking cycles broken by the dynamic-arrival backstop. Always
  // zero for static task sets.
  std::uint64_t dynamic_deadlocks() const { return dynamic_deadlocks_; }
  // The lower-priority transactions currently blocking `txn` (the PCP
  // invariant bounds this at one).
  std::vector<db::TxnId> lower_priority_blockers_of(const CcTxn& txn) const;
  // Distinct transactions of lower base priority than `txn` currently
  // holding a lock whose rw ceiling would deny txn's requests. For a
  // static task set the protocol provably bounds this at one — the
  // "blocked by at most one lower priority transaction" theorem — and the
  // tests assert it. (One such transaction may hold several blocking
  // locks: its own co-held locks are excluded from its ceiling test.)
  std::size_t lower_priority_blocking_txns(const CcTxn& txn) const;

 protected:
  void do_begin(CcTxn& txn) override;
  void do_release_all(CcTxn& txn) override;
  void do_end(CcTxn& txn) override;

 private:
  struct LockState {
    CcTxn* writer = nullptr;
    sim::InlineVec<CcTxn*, 4> readers;
    sim::Priority rw_ceiling = sim::Priority::lowest();

    bool held_by_other(const CcTxn& txn) const;
    bool empty() const { return writer == nullptr && readers.empty(); }
  };

  // One entry per (active transaction, declared object): the inverted form
  // of the declared read/write sets, so ceilings update incrementally on
  // begin/end instead of rescanning every active transaction.
  struct Declarer {
    const CcTxn* txn = nullptr;
    bool write = false;
  };

  struct Waiter {
    CcTxn* txn = nullptr;
    db::ObjectId object = 0;
    LockMode mode = LockMode::kRead;
    sim::Semaphore* wakeup = nullptr;
    bool granted = false;
    std::uint64_t seq = 0;
  };

  LockMode effective_mode(LockMode mode) const {
    return options_.exclusive_only ? LockMode::kWrite : mode;
  }

  // The lock (held at least partly by others) with the strongest
  // rw-ceiling; nullptr when none.
  const LockState* strongest_blocking_lock(const CcTxn& txn) const;
  // The grant rule, given txn's strongest blocking lock.
  static bool passes_ceiling(const CcTxn& txn, const LockState* blocking);
  bool can_grant(const CcTxn& txn) const;
  void grant(CcTxn& txn, db::ObjectId object, LockMode mode);
  // Incremental static-ceiling maintenance over the declaration index: a
  // newcomer's declarations only raise ceilings; a departure recomputes the
  // (few) objects it declared from their remaining declarers.
  void add_declarations(const CcTxn& txn);
  void remove_declarations(const CcTxn& txn);
  void refresh_rw_ceiling(db::ObjectId object, LockState& lock);
  // Priority inheritance to a fixpoint, then grants every waiter the new
  // state allows, repeating until stable; finally runs the deadlock
  // backstop. Re-entrant (a backstop abort re-triggers it) via a dirty flag.
  // Each waiter's strongest blocking lock is found once per round, by
  // update_inheritance() into blocking_scratch_: the locks do not change
  // until grant_pass() grants (which starts a new round), and the
  // priority hooks never re-enter the controller.
  // `requester` is the transaction whose acquire() is running (nullptr
  // from every other call site). Returns true, stopping at once, when the
  // backstop's victim is that requester; its acquire() then returns the
  // abort.
  bool stabilize(const CcTxn* requester);
  void update_inheritance();
  bool grant_pass();
  // Detects a ceiling-blocking cycle among the waiters and aborts its
  // lowest-priority member: through the abort hook, or — when it is
  // `requester` — by reporting kAbortedRunning without calling the hook.
  enum class Backstop : std::uint8_t { kQuiet, kAborted, kAbortedRunning };
  Backstop resolve_dynamic_deadlock(const CcTxn* requester);

  Options options_;
  std::uint32_t object_count_;
  // The per-object tables below are empty until the first transaction
  // begins (see do_begin).
  std::vector<sim::Priority> write_ceiling_;
  std::vector<sim::Priority> abs_ceiling_;
  std::vector<sim::InlineVec<Declarer, 4>> decls_;  // indexed by object
  // Lock table flattened for the hot scans: per-object slots (stable
  // addresses — `LockState*` stays valid across grants) plus the sorted
  // list of currently locked ids. Ascending iteration over `locked_ids_`
  // reproduces the ordered-map iteration the protocol's tie-breaks
  // (strongest_blocking_lock, release order) were specified against.
  std::vector<LockState> lock_slots_;   // indexed by object
  std::vector<db::ObjectId> locked_ids_;  // sorted ascending
  std::unordered_map<db::TxnId, CcTxn*> active_;
  std::vector<Waiter*> waiters_;  // priority order (highest first)
  // Active transactions whose inherited priority is not lowest(); with no
  // waiters either, stabilize() has nothing to do.
  std::size_t inheriting_ = 0;
  // Reused scratch for the stabilize loop so it allocates nothing:
  // blocking_scratch_[i] is waiters_[i]'s strongest blocking lock, and the
  // epoch counter pairs with the scratch marks in CcTxn (stale epochs read
  // as unmarked).
  std::vector<const LockState*> blocking_scratch_;
  struct DdlFrame {
    CcTxn* node = nullptr;
    std::uint32_t next = 0;
  };
  std::vector<CcTxn*> ddl_targets_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> ddl_spans_;
  std::vector<CcTxn*> ddl_path_;
  std::vector<DdlFrame> ddl_stack_;
  std::uint64_t ddl_epoch_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t ceiling_denials_ = 0;
  std::uint64_t dynamic_deadlocks_ = 0;
  bool stabilizing_ = false;
  bool restabilize_ = false;
};

}  // namespace rtdb::cc
