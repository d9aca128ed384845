#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <unordered_map>

#include "cc/controller.hpp"
#include "cc/deadlock.hpp"
#include "cc/lock_table.hpp"

namespace rtdb::cc {

// Two-phase locking, covering three of the paper's protocols through
// configuration:
//   * plain 2PL, FIFO queues                       — curve "L"
//   * 2PL with priority mode (priority queues)     — curve "P"
//   * 2PL with basic priority inheritance (§3.1)   — the stepping stone the
//     paper discusses before the ceiling protocol; still deadlock-prone.
//
// Deadlocks are detected continuously (a wait-for-graph cycle check on
// every block) and resolved by aborting a victim chosen by VictimPolicy;
// the transaction manager restarts victims until their deadline expires.
// The graph is read from the live lock table: a waiting transaction waits
// for the blockers of its queued request.
class TwoPhaseLocking : public ConcurrencyController {
 public:
  enum class VictimPolicy : std::uint8_t {
    kLowestPriority,  // break the cycle at the least urgent transaction
    kYoungest,        // most recently started transaction in the cycle
    kRequester,       // the transaction whose request closed the cycle
  };

  struct Options {
    LockTable::QueuePolicy queue_policy = LockTable::QueuePolicy::kFifo;
    bool priority_inheritance = false;
    VictimPolicy victim_policy = VictimPolicy::kLowestPriority;
  };

  TwoPhaseLocking(sim::Kernel& kernel, Options options);

  sim::Task<std::optional<AbortReason>> acquire(CcTxn& txn, db::ObjectId object,
                                                LockMode mode) override;
  std::string_view name() const override;
  bool quiescent(std::string* why = nullptr) const override;

  const Options& options() const { return options_; }
  std::uint64_t deadlocks() const { return deadlocks_; }
  const LockTable& table() const { return table_; }

 protected:
  void do_begin(CcTxn& txn) override;
  void do_release_all(CcTxn& txn) override;
  void do_end(CcTxn& txn) override;

 private:
  // Detects and resolves cycles created by `request`. Returns true as soon
  // as the requester itself is chosen as victim, false once it is
  // cycle-free.
  bool resolve_deadlocks(CcTxn& requester, LockTable::Request& request);
  db::TxnId pick_victim(std::span<const db::TxnId> cycle,
                        db::TxnId requester) const;
  // PIP: recomputes all inherited priorities to a fixpoint.
  void update_inheritance();

  Options options_;
  LockTable table_;
  CycleFinder cycle_finder_;
  std::unordered_map<db::TxnId, CcTxn*> active_;
  std::unordered_map<db::TxnId, LockTable::Request*> waiting_;
  std::uint64_t deadlocks_ = 0;
};

// The basic priority-inheritance locking protocol of §3.1 ([Sha87] in the
// paper): priority-ordered queues plus inheritance, but no ceilings — so
// chained blocking and deadlocks remain possible.
class PriorityInheritance2PL : public TwoPhaseLocking {
 public:
  explicit PriorityInheritance2PL(
      sim::Kernel& kernel,
      VictimPolicy victim_policy = VictimPolicy::kLowestPriority)
      : TwoPhaseLocking(kernel,
                        Options{LockTable::QueuePolicy::kPriority, true,
                                victim_policy}) {}

  std::string_view name() const override { return "2PL-PIP"; }
};

}  // namespace rtdb::cc
