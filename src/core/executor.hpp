#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "cc/controller.hpp"
#include "cc/serializability.hpp"
#include "db/resource_manager.hpp"
#include "dist/replication.hpp"
#include "net/message_server.hpp"
#include "net/rpc.hpp"
#include "sched/cpu.hpp"
#include "sim/kernel.hpp"
#include "sim/task.hpp"
#include "txn/transaction.hpp"
#include "txn/two_phase_commit.hpp"

namespace rtdb::core {

// The transaction body of every scheme (§1, §3, §4): for each declared
// operation, acquire the lock, read the object, compute (cpu_per_object);
// then commit the write set and release — a strict two-phase schedule.
// The schemes differ only in where a lock request is decided (the site's
// controller: a local protocol, the site's own ceiling manager, or the
// client of the remote ceiling managers) and in how writes reach the
// copies, so the body branches on what the site has, never on the scheme:
//
//  * read: the site's copy of the object when it holds one, otherwise a
//    DataReadReq round trip to the object's primary site;
//  * commit without a 2PC coordinator: install the writes on the local
//    primaries (one I/O per object), then ship them to the secondary copies
//    asynchronously when the site replicates (the local ceiling scheme);
//  * commit with a coordinator: 2PC across the other holders of the writes
//    — every site under full replication, with the versions computed here
//    under the global locks; the owner sites under partitioned placement,
//    each computing its own versions.
class Executor final : public txn::TxnExecutor {
 public:
  struct Services {
    sim::Kernel* kernel = nullptr;
    sched::PreemptiveCpu* cpu = nullptr;
    db::ResourceManager* rm = nullptr;
    cc::ConcurrencyController* cc = nullptr;
    cc::HistoryRecorder* history = nullptr;  // optional oracle
    // Distributed sites only; null where the site has no such machinery.
    dist::ReplicationManager* replication = nullptr;
    net::MessageServer* server = nullptr;  // ships write sets ahead of 2PC
    net::RpcClient* rpc = nullptr;         // remote primary-copy reads
    txn::CommitCoordinator* coordinator = nullptr;
  };
  struct Costs {
    sim::Duration cpu_per_object{};
    // When false (the paper's plain-2PL configuration "L"), transactions
    // compete for CPU and disk without priorities.
    bool use_priority_scheduling = true;
    // Locking granularity (the UI's "database ... granularity" knob):
    // objects per locking granule. Locks and declared sets operate on
    // granule ids (object / granularity); physical reads and writes stay
    // per-object. 1 = object-level locking.
    std::uint32_t lock_granularity = 1;
    // 2PC vote-collection window; a missing vote counts as NO.
    sim::Duration vote_timeout = sim::Duration::units(1000);
  };

  Executor(Services services, Costs costs);

  // Attempt coroutines and the transaction manager hold its address.
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  sim::Task<std::optional<cc::AbortReason>> run(
      txn::AttemptContext& attempt, const txn::TransactionSpec& spec) override;
  void release(txn::AttemptContext& attempt, const txn::TransactionSpec& spec,
               bool committed) override;

 private:
  // The priority the CPU/disk schedulers see for this attempt.
  sim::Priority sched_priority(const cc::CcTxn& ctx) const;
  // Two-phase commit of `writes` across the sites that hold them.
  sim::Task<bool> commit_distributed(const txn::TransactionSpec& spec,
                                     const cc::CcTxn& ctx,
                                     std::span<const db::ObjectId> writes);

  Services services_;
  Costs costs_;
};

}  // namespace rtdb::core
