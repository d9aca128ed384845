#pragma once

#include <cstdint>
#include <string_view>

#include "cc/controller.hpp"
#include "cc/lock_table.hpp"

namespace rtdb::cc {

// High-Priority two-phase locking (the abort-based scheme of Abbott &
// Garcia-Molina, which the paper cites as the contemporaneous alternative
// line of work): on a lock conflict, if the requester's priority is higher
// than that of every conflicting holder, the holders are aborted
// ("wounded") and restarted; otherwise the requester waits in priority
// order.
//
// A transaction therefore only ever waits for higher-priority transactions,
// so no deadlock can form and no detector is needed (asserted by tests).
class HighPriority2PL : public ConcurrencyController {
 public:
  explicit HighPriority2PL(sim::Kernel& kernel);

  sim::Task<std::optional<AbortReason>> acquire(CcTxn& txn, db::ObjectId object,
                                                LockMode mode) override;
  std::string_view name() const override { return "2PL-HP"; }

  std::uint64_t wounds() const { return wounds_; }
  const LockTable& table() const { return table_; }

 protected:
  void do_release_all(CcTxn& txn) override;

 private:
  LockTable table_;
  std::uint64_t wounds_ = 0;
};

}  // namespace rtdb::cc
