#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cc/controller.hpp"
#include "cc/pcp.hpp"
#include "cc/serializability.hpp"
#include "db/database.hpp"
#include "db/resource_manager.hpp"
#include "dist/lease.hpp"
#include "net/message_server.hpp"
#include "net/rpc.hpp"
#include "sched/cpu.hpp"
#include "sim/kernel.hpp"
#include "txn/transaction.hpp"
#include "txn/two_phase_commit.hpp"

namespace rtdb::dist {

// ---- wire messages of the global and partitioned ceiling schemes ----

// Control messages carry the 1-based attempt number of the sending attempt
// (0 = legacy sender): with retransmission in play, a duplicate from an
// aborted attempt must not corrupt the state of the current one.
//
// Every control message also carries the shard it addresses: a site hosts
// one handler slot per message type, so a per-site ShardRouter
// demultiplexes on this field. The global scheme is the one-shard layout
// and always sends 0.
struct RegisterTxnMsg {
  std::uint64_t txn = 0;
  std::uint32_t attempt = 0;
  std::int64_t priority_key = 0;
  std::uint32_t priority_tie = 0;
  // Hard deadline of the transaction (ticks since the origin; 0 from
  // legacy senders). Past it the home watchdog has provably killed the
  // transaction, so a reaping manager may treat a surviving mirror as an
  // orphan whose teardown messages were lost.
  std::int64_t deadline_ticks = 0;
  std::vector<cc::Operation> operations;
  // Locks the attempt already holds (failover re-registration only): the
  // successor manager adopts them instead of re-running the grant rule.
  std::vector<cc::Operation> held;
  // Last so existing positional initializers keep their meaning.
  std::uint32_t shard = 0;
};
struct ReleaseAllMsg {
  std::uint64_t txn = 0;
  std::uint32_t attempt = 0;
  std::uint32_t shard = 0;
};
struct EndTxnMsg {
  std::uint64_t txn = 0;
  std::uint32_t attempt = 0;
  std::uint32_t shard = 0;
};
// RPC request/response for lock acquisition.
struct AcquireReq {
  std::uint64_t txn = 0;
  std::uint32_t attempt = 0;
  db::ObjectId object = 0;
  cc::LockMode mode = cc::LockMode::kRead;
  std::uint32_t shard = 0;
};
struct AcquireResp {
  bool granted = false;
  // The granting manager's lease term. A client that has adopted a newer
  // election rejects a grant stamped with an older term — the stale-grant
  // fence that closes the split-brain window a healed minority-side
  // manager could otherwise exploit. Denials carry the term too (it is
  // ignored). 0 for the fault-free single-manager configuration.
  std::uint64_t term = 0;
};
// RPC for reading a remote primary copy.
struct DataReadReq {
  db::ObjectId object = 0;
};
struct DataReadResp {
  db::Version version{};
};
// Ships an update transaction's writes to a participant ahead of 2PC.
// With `versions` filled in (the replicated-synchronous variant) the
// participant installs them verbatim; empty versions (the partitioned
// variant) mean the owner computes versions itself on commit.
struct WriteSetMsg {
  std::uint64_t txn = 0;
  std::vector<db::ObjectId> objects;
  std::vector<db::Version> versions;
};

// The global ceiling manager of §4: one site holds all the information for
// the ceiling protocol and takes every ceiling-blocking decision; lock
// requests from every site travel to it and grants travel back, so locks
// are held across the network for the whole transaction. The partitioned
// scheme runs one per shard over that shard's objects; the global scheme
// is its one-shard case.
//
// Each registered transaction has a mirror CcTxn here; a waiting grant is a
// kernel process blocked inside the embedded PriorityCeiling instance.
class GlobalCeilingManager {
 public:
  // With failover, every site hosts a manager instance per shard but only
  // the elected one is `active`. An inactive manager ignores registrations
  // and denies acquires (the client retries against the real manager).
  // `reap_orphans` arms the deadline-based orphan reaper — required under
  // faults (a partition can eat a dead transaction's ReleaseAll/EndTxn for
  // longer than the retransmit budget, leaving its mirror and any blocked
  // grant stuck here forever) and left off in fault-free runs so no extra
  // kernel events exist and artifacts stay byte-identical. The manager
  // registers no handlers: the site's ShardRouter owns the per-type slots
  // and calls the handle_* entry points below, so control messages arrive
  // the same way whether they travel raw, in batch frames or reliably
  // wrapped.
  GlobalCeilingManager(net::MessageServer& server, std::uint32_t object_count,
                       bool active, bool reap_orphans);

  // Entry points for the ShardRouter.
  void handle_register(net::SiteId from, RegisterTxnMsg message);
  void handle_release(const ReleaseAllMsg& message);
  void handle_end(const EndTxnMsg& message);
  void handle_acquire(AcquireReq request, net::RpcServer::Responder respond);

  GlobalCeilingManager(const GlobalCeilingManager&) = delete;
  GlobalCeilingManager& operator=(const GlobalCeilingManager&) = delete;

  const cc::PriorityCeiling& protocol() const { return pcp_; }
  // Non-const access for wiring (conformance observer attachment).
  cc::PriorityCeiling& protocol() { return pcp_; }
  std::uint64_t registrations() const { return registrations_; }
  std::uint64_t acquire_requests() const { return acquire_requests_; }
  std::uint64_t denials() const { return denials_; }
  // Locks re-installed from failover re-registrations (`held` sets): locks
  // that would otherwise have been orphaned at the dead manager.
  std::uint64_t orphan_locks_reclaimed() const { return orphans_reclaimed_; }
  // Transactions currently registered here; 0 once the system drains.
  std::size_t live_mirrors() const { return mirrors_.size(); }
  bool active() const { return active_; }
  bool fenced() const { return fenced_; }
  // Acquires denied because the lease was fenced at grant time.
  std::uint64_t fence_denials() const { return fence_denials_; }

  // Failover: this site was elected manager with a lease for `term`; start
  // accepting state and stamp grants with the term.
  void activate(std::uint64_t term) {
    active_ = true;
    fenced_ = false;
    lease_term_ = term;
  }
  // Lease fence: a fenced manager stops granting (acquires are denied,
  // in-flight grants deny at reply time) but keeps serving registers,
  // releases, and ends — the lock book stays current so the successor's
  // re-registrations adopt an accurate held set.
  void set_fenced(bool fenced) { fenced_ = fenced; }
  // Conformance audit tap for grant stamping (optional; may be null).
  void set_lease_observer(LeaseObserver* observer) { observer_ = observer; }
  // Failover: a peer outranked this manager (stale restored site). Drops
  // every mirror — the authoritative state now lives at the new manager,
  // rebuilt from the clients' re-registrations.
  void deactivate();
  // Site failure: all volatile manager state dies with the site.
  void on_crash();

  // Failure-detector hook: aborts and deregisters every mirror homed at
  // `site` (the site crashed — its transactions will never send their
  // release/end messages), releasing whatever they held so the survivors
  // are not blocked behind a dead site's locks.
  void abort_site(net::SiteId site);

 private:
  struct Mirror {
    cc::CcTxn ctx;
    net::SiteId home = 0;
    std::uint32_t attempt = 0;
    std::vector<sim::ProcessId> pending;
    // Re-issued acquires for an object already being served: the extra
    // responders piggyback on the in-flight grant's result (answering a
    // retried RPC's live correlation; the first reply is dropped as late).
    std::map<db::ObjectId, std::vector<net::RpcServer::Responder>> inflight;
    bool aborted = false;
    // Armed orphan-reap timer (reaping managers only); disarmed on every
    // normal removal path.
    sim::EventId reap_event{};
    bool reap_armed = false;
  };

  sim::Task<void> serve_acquire(Mirror& mirror, AcquireReq request,
                                net::RpcServer::Responder respond);
  // Kills waiting grants and releases everything; shared teardown of
  // handle_release / handle_end.
  void cancel_pending(Mirror& mirror);
  // Orphan reaper (faulty runs only): every registration arms a timer at
  // the transaction's deadline plus one unit; a mirror still present when
  // it fires lost its teardown messages for good and is removed as if the
  // ReleaseAll + EndTxn had arrived.
  void arm_reap(std::uint64_t txn, Mirror& mirror, std::int64_t deadline_ticks);
  void disarm_reap(Mirror& mirror);
  void reap_orphan(std::uint64_t txn, std::uint32_t attempt);
  void remove_mirror(std::unordered_map<
                     std::uint64_t, std::unique_ptr<Mirror>>::iterator it);
  // PCP backstop hook (dynamic-arrival deadlock at the manager): aborts
  // another mirror than the requesting one.
  void abort_mirror(db::TxnId victim, cc::AbortReason reason);
  void finish_abort(Mirror& mirror);

  net::MessageServer& server_;
  cc::PriorityCeiling pcp_;
  LeaseObserver* observer_ = nullptr;
  bool active_ = true;
  bool fenced_ = false;
  bool reap_orphans_ = false;
  std::uint64_t lease_term_ = 0;
  std::uint64_t fence_denials_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<Mirror>> mirrors_;
  // Highest attempt known to have ended, per transaction: a retransmitted
  // Register of a finished attempt must not resurrect its mirror.
  std::unordered_map<std::uint64_t, std::uint32_t> ended_;
  std::uint64_t registrations_ = 0;
  std::uint64_t acquire_requests_ = 0;
  std::uint64_t denials_ = 0;
  std::uint64_t orphans_reclaimed_ = 0;
};

// Per-site data service for the partitioned database: answers remote
// primary-copy reads and acts as the 2PC participant that applies shipped
// write sets on commit.
class DataServer {
 public:
  // `participant_options` configures the embedded 2PC participant (a
  // nonzero decision timeout arms presumed abort; see
  // txn::CommitParticipant::Options).
  DataServer(net::MessageServer& server, net::RpcDispatcher& rpc,
             db::ResourceManager& rm,
             txn::CommitParticipant::Options participant_options);

  DataServer(const DataServer&) = delete;
  DataServer& operator=(const DataServer&) = delete;

  // Site crash: staged (uncommitted) write sets are volatile state and die
  // with the site.
  void on_crash() { staged_.clear(); }

  // The embedded 2PC participant (wire an outcome source for cooperative
  // termination).
  txn::CommitParticipant& participant() { return participant_; }

  std::uint64_t remote_reads() const { return remote_reads_; }
  std::uint64_t presumed_aborts() const {
    return participant_.presumed_aborts();
  }
  std::uint64_t termination_queries() const {
    return participant_.termination_queries();
  }
  std::uint64_t termination_resolutions() const {
    return participant_.termination_resolutions();
  }

 private:
  net::MessageServer& server_;
  db::ResourceManager& rm_;
  txn::CommitParticipant participant_;
  std::unordered_map<std::uint64_t, WriteSetMsg> staged_;
  std::uint64_t remote_reads_ = 0;
};

// Transaction body under the global scheme: every lock is acquired through
// the remote ceiling manager and held across the network for the whole
// transaction. Two data placements are supported, selected by the schema:
//
//  * kFullyReplicated (the paper's setting — "every data object maintains
//    most up-to-date value"): reads are local, and commits install the new
//    versions at *every* site synchronously under the global locks (2PC to
//    all other sites), which is what guarantees temporal consistency and
//    what makes the scheme expensive;
//  * kPartitioned (extension): reads of remote primaries are DataReadReq
//    round trips and commits run 2PC across the owner sites only.
class GlobalExecutor : public txn::TxnExecutor {
 public:
  struct Services {
    sim::Kernel* kernel = nullptr;
    sched::PreemptiveCpu* cpu = nullptr;
    db::ResourceManager* rm = nullptr;  // this site's partition
    const db::Database* schema = nullptr;
    // The site's PartitionedCeilingClient (one shard under the global
    // scheme); only the base lifecycle is used.
    cc::ConcurrencyController* cc = nullptr;
    net::MessageServer* server = nullptr;
    net::RpcClient* rpc = nullptr;
    txn::CommitCoordinator* coordinator = nullptr;
    cc::HistoryRecorder* history = nullptr;
  };
  struct Costs {
    sim::Duration cpu_per_object{};
    bool use_priority_scheduling = true;
    sim::Duration vote_timeout = sim::Duration::units(1000);
  };

  GlobalExecutor(Services services, Costs costs);

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
