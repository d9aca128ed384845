#pragma once

#include <cstdint>
#include <string_view>

#include "cc/controller.hpp"
#include "cc/lock_table.hpp"

namespace rtdb::cc {

// The classic age-based deadlock-free 2PL variants from the scheduling
// literature the paper builds on ([Abb88] evaluates this family for
// real-time transactions). Transaction age = first-arrival order, which is
// exactly the TxnId (stable across restarts, so a restarted transaction
// keeps its seniority and eventually wins — the liveness argument).
//
//   Wait-Die   : an older requester may wait for younger holders; a
//                younger requester "dies" (aborts and restarts) instead of
//                waiting for an older holder.
//   Wound-Wait : an older requester "wounds" (aborts) younger holders and
//                takes the lock; a younger requester waits for older
//                holders.
//
// Both orient every wait older->younger... precisely: Wait-Die waits only
// older-for-younger, Wound-Wait waits only younger-for-older — either way
// the wait-for relation is acyclic, so neither can deadlock (asserted by
// the tests).
class AgeBased2PL : public ConcurrencyController {
 public:
  enum class Flavour : std::uint8_t { kWaitDie, kWoundWait };

  AgeBased2PL(sim::Kernel& kernel, Flavour flavour);

  sim::Task<std::optional<AbortReason>> acquire(CcTxn& txn, db::ObjectId object,
                                                LockMode mode) override;
  std::string_view name() const override {
    return flavour_ == Flavour::kWaitDie ? "2PL-WD" : "2PL-WW";
  }

  Flavour flavour() const { return flavour_; }
  std::uint64_t dies() const { return dies_; }
  std::uint64_t wounds() const { return wounds_; }
  const LockTable& table() const { return table_; }

 protected:
  void do_release_all(CcTxn& txn) override;

 private:
  static bool older(const CcTxn& a, const CcTxn& b) { return a.id < b.id; }

  Flavour flavour_;
  LockTable table_;
  std::uint64_t dies_ = 0;
  std::uint64_t wounds_ = 0;
};

class WaitDie2PL : public AgeBased2PL {
 public:
  explicit WaitDie2PL(sim::Kernel& kernel)
      : AgeBased2PL(kernel, Flavour::kWaitDie) {}
};

class WoundWait2PL : public AgeBased2PL {
 public:
  explicit WoundWait2PL(sim::Kernel& kernel)
      : AgeBased2PL(kernel, Flavour::kWoundWait) {}
};

}  // namespace rtdb::cc
