#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cc/controller.hpp"
#include "cc/pcp.hpp"
#include "cc/serializability.hpp"
#include "check/monitor.hpp"
#include "core/config.hpp"
#include "core/run_result.hpp"
#include "db/database.hpp"
#include "db/resource_manager.hpp"
#include "dist/failover.hpp"
#include "dist/global_ceiling.hpp"
#include "dist/local_ceiling.hpp"
#include "dist/partitioned.hpp"
#include "dist/recovery.hpp"
#include "dist/replication.hpp"
#include "net/batch.hpp"
#include "net/message_server.hpp"
#include "net/reliable.hpp"
#include "net/network.hpp"
#include "net/rpc.hpp"
#include "sched/cpu.hpp"
#include "sched/disk.hpp"
#include "sim/kernel.hpp"
#include "stats/metrics.hpp"
#include "stats/monitor.hpp"
#include "txn/manager.hpp"
#include "txn/two_phase_commit.hpp"
#include "workload/generator.hpp"

namespace rtdb::core {

// One fully wired instance of the prototyping environment: the kernel, the
// per-site server stacks (CPU, I/O, resource manager, concurrency
// controller, transaction manager, message server), the distribution
// scheme's machinery, the transaction generator, and the performance
// monitor. This is the programmatic equivalent of the paper's
// Configuration Manager acting on the User Interface's settings.
class System {
 public:
  explicit System(SystemConfig config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // Starts the transaction generator without running the clock — for
  // callers that drive the kernel themselves (e.g. run_until with periodic
  // sources, which never drain). Idempotent.
  void start();

  // Generates the configured batch of transactions and runs until every
  // one has committed or missed its deadline. Only valid without periodic
  // sources (their streams never end).
  void run_to_completion();

  sim::Kernel& kernel() { return kernel_; }
  const SystemConfig& config() const { return config_; }
  const db::Database& schema() const { return schema_; }
  stats::PerformanceMonitor& monitor() { return monitor_; }
  const cc::HistoryRecorder* history() const {
    return config_.record_history ? &history_ : nullptr;
  }
  // The conformance monitor; nullptr unless config.conformance_check.
  const check::ConformanceMonitor* conformance() const {
    return conformance_.get();
  }

  stats::Metrics metrics() const;

  // ---- per-site access (tests, examples) ----
  struct Site {
    std::unique_ptr<net::MessageServer> server;
    std::unique_ptr<net::ReliableChannel> channel;
    // Control-message batching (global + partitioned schemes); an exact
    // passthrough when config.batch_window is zero.
    std::unique_ptr<net::BatchChannel> batch;
    std::unique_ptr<net::RpcClient> rpc_client;
    std::unique_ptr<net::RpcDispatcher> rpc_dispatcher;
    std::unique_ptr<sched::PreemptiveCpu> cpu;
    std::unique_ptr<sched::IoSubsystem> io;
    std::unique_ptr<db::ResourceManager> rm;
    std::unique_ptr<cc::ConcurrencyController> cc;
    std::unique_ptr<dist::ReplicationManager> replication;
    std::unique_ptr<dist::RecoveryManager> recovery;
    std::unique_ptr<dist::DataServer> data_server;
    // Always null: every ceiling manager lives in shard_managers. Still
    // declared only because perfbench/src/workloads.cpp reads it.
    std::unique_ptr<dist::GlobalCeilingManager> manager;
    // Global and partitioned schemes: the per-site demultiplexer plus one
    // (standby) manager and failover coordinator per shard. Indexed by
    // shard; null where this site hosts no endpoint for the shard. The
    // global scheme is the one-shard layout: shard 0's manager starts at
    // site 0.
    std::unique_ptr<dist::ShardRouter> router;
    std::vector<std::unique_ptr<dist::GlobalCeilingManager>> shard_managers;
    std::vector<std::unique_ptr<dist::FailoverCoordinator>> shard_failovers;
    std::unique_ptr<txn::CommitCoordinator> coordinator;
    std::unique_ptr<txn::TxnExecutor> executor;
    std::unique_ptr<txn::TransactionManager> tm;
  };
  Site& site(net::SiteId id) { return sites_[id]; }
  std::uint32_t site_count() const {
    return static_cast<std::uint32_t>(sites_.size());
  }
  net::Network* network() { return network_.get(); }
  const workload::TransactionGenerator& generator() const {
    return *generator_;
  }

  // ---- fault injection (config_.faults drives these automatically) ----
  // Fail-stop outage of one site: network down both directions, dispatcher
  // stopped, queued inbox lost, staged write sets lost, running attempts
  // killed; every ceiling manager aborts the site's transactions
  // (idealized instantaneous failure detection). Idempotent while down.
  void crash_site(net::SiteId site);
  // Brings the site back: network up, dispatcher restarted, queued and
  // surviving transactions resumed, replica catch-up requested.
  void restore_site(net::SiteId site);

  // ---- run counters ----
  // Every counter field of a RunResult in one pass over the sites (their
  // transaction managers, controllers, commit machinery and channels, and
  // the ceiling managers and failover coordinators they host), plus the
  // network's drop counts, crashes, the elapsed clock and, when the
  // conformance monitor is attached, its readings. A counter whose layer
  // the scheme does not build stays 0, and shard_migrations is 0 outside
  // the partitioned scheme (a global-scheme promotion is a failover only).
  // metrics, invariant_violations and bound_blocking_units are left to
  // ExperimentRunner::run_once.
  RunResult counters() const;

  // Read by perfbench/src/workloads.cpp only; delete them at the next
  // change to the benchmark, which reads counters() instead.
  std::uint64_t total_restarts() const { return counters().restarts; }
  std::uint64_t total_deadline_kills() const {
    return counters().deadline_kills;
  }
  std::uint64_t total_dynamic_deadlocks() const {
    return counters().dynamic_deadlocks;
  }
  std::uint64_t total_commit_rounds() const { return counters().commit_rounds; }
  std::uint64_t total_retransmissions() const {
    return counters().retransmissions;
  }
  std::uint64_t total_batched_messages() const {
    return counters().batched_messages;
  }
  std::uint64_t total_batch_flushes() const { return counters().batch_flushes; }
  std::uint64_t total_failovers() const { return counters().failovers; }
  std::uint64_t total_shard_migrations() const {
    return counters().shard_migrations;
  }

  // Ceiling-manager shards actually built: under the partitioned scheme
  // config.shards clamped to the site count (default one per site capped
  // at 8), one under the global scheme, 0 otherwise.
  std::uint32_t effective_shards() const;

  // Post-run invariant audit: every controller quiescent (no live
  // transactions, empty lock tables, ceilings reset), every manager drained
  // of mirrors, and — when record_history is on — the committed history
  // conflict-serializable. Returns the number of violated invariants; the
  // first violation's description lands in `why` when non-null.
  std::uint64_t invariant_violations(std::string* why = nullptr) const;

 private:
  void build_single_site();
  void build_local_ceiling();
  // Global and partitioned schemes (the global one at one shard).
  void build_partitioned_ceiling();
  // Object -> shard map bound to this run's config.
  std::function<std::uint32_t(db::ObjectId)> shard_fn() const;
  void attach_conformance();
  void schedule_faults();
  Site make_site_base(net::SiteId id);
  bool use_priority_scheduling() const {
    return config_.protocol != Protocol::kTwoPhase;
  }
  void submit(txn::TransactionSpec spec);
  // Workload generated and every transaction finished — the heartbeat
  // loops' stop condition, so the kernel's event queue can drain.
  bool drained() const;

  SystemConfig config_;
  sim::Kernel kernel_;
  db::Database schema_;
  std::unique_ptr<net::Network> network_;
  std::vector<Site> sites_;
  cc::HistoryRecorder history_;
  stats::PerformanceMonitor monitor_;
  std::unique_ptr<check::ConformanceMonitor> conformance_;
  std::unique_ptr<workload::TransactionGenerator> generator_;
  bool started_ = false;
  std::uint64_t crashes_ = 0;
};

}  // namespace rtdb::core
