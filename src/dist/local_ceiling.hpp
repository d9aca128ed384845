#pragma once

#include "cc/controller.hpp"
#include "cc/serializability.hpp"
#include "db/resource_manager.hpp"
#include "dist/replication.hpp"
#include "sched/cpu.hpp"
#include "sim/kernel.hpp"
#include "txn/transaction.hpp"

namespace rtdb::dist {

// The local ceiling approach of §4: every site runs its own priority
// ceiling manager over its full replica of the database; update
// transactions execute entirely locally against primary copies co-located
// with them, commit locally, and only then propagate the new versions to
// the secondary copies asynchronously. Read-only transactions read local
// copies, accepting temporal inconsistency.
//
// No locks are ever held across the network, so there can be no
// distributed deadlock (each site's ceiling manager handles local safety).
class ReplicatedExecutor : public txn::TxnExecutor {
 public:
  struct Services {
    sim::Kernel* kernel = nullptr;
    sched::PreemptiveCpu* cpu = nullptr;
    db::ResourceManager* rm = nullptr;
    cc::ConcurrencyController* cc = nullptr;  // the site's ceiling manager
    ReplicationManager* replication = nullptr;
    cc::HistoryRecorder* history = nullptr;  // optional oracle
  };
  struct Costs {
    sim::Duration cpu_per_object{};
    bool use_priority_scheduling = true;
  };

  ReplicatedExecutor(Services services, Costs costs);

  sim::Task<std::optional<cc::AbortReason>> run(
      txn::AttemptContext& attempt, const txn::TransactionSpec& spec) override;
  void release(txn::AttemptContext& attempt, const txn::TransactionSpec& spec,
               bool committed) override;

 private:
  sim::Priority sched_priority(const cc::CcTxn& ctx) const;

  Services services_;
  Costs costs_;
};

}  // namespace rtdb::dist
