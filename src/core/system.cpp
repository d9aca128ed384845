#include "core/system.hpp"

#include <algorithm>
#include <cassert>

#include "analysis/bounds.hpp"
#include "core/protocol.hpp"

namespace rtdb::core {

namespace {

const char* kProtocolNames[] = {"2PL",     "2PL-P",  "PCP",    "PCP-X",
                                "2PL-PIP", "2PL-HP", "TSO",    "2PL-WD",
                                "2PL-WW"};

// Per-site fork ids for the reliable channels' retransmission jitter:
// disjoint from the workload stream (raw seed) and the fault stream (0xFA),
// so enabling retries perturbs neither.
constexpr std::uint64_t kChannelStream = 0xCA00;

db::Placement placement_for(const SystemConfig& config) {
  switch (config.scheme) {
    case DistScheme::kSingleSite:
      return db::Placement::kSingleSite;
    case DistScheme::kGlobalCeiling:
    case DistScheme::kLocalCeiling:
      return db::Placement::kFullyReplicated;
    case DistScheme::kPartitionedCeiling:
      // Single-copy data: a fully replicated database would make every
      // update a cross-shard broadcast and erase the scheme's point.
      return db::Placement::kPartitioned;
  }
  return db::Placement::kSingleSite;
}

workload::Assignment assignment_for(const SystemConfig& config) {
  switch (config.scheme) {
    case DistScheme::kSingleSite:
      return workload::Assignment::kSingleSite;
    case DistScheme::kGlobalCeiling:
    case DistScheme::kPartitionedCeiling:
      return workload::Assignment::kUniformSite;
    case DistScheme::kLocalCeiling:
      return workload::Assignment::kHomeByWriteSet;
  }
  return workload::Assignment::kSingleSite;
}

// Visitors over the ceiling-manager endpoints a site hosts (global and
// partitioned schemes; none elsewhere): f(shard, endpoint) for every
// non-null slot, in shard order.
template <typename F>
void for_each_manager(const System::Site& site, F f) {
  for (std::uint32_t shard = 0; shard < site.shard_managers.size(); ++shard) {
    if (site.shard_managers[shard] != nullptr) {
      f(shard, *site.shard_managers[shard]);
    }
  }
}

template <typename F>
void for_each_failover(const System::Site& site, F f) {
  for (std::uint32_t shard = 0; shard < site.shard_failovers.size(); ++shard) {
    if (site.shard_failovers[shard] != nullptr) {
      f(shard, *site.shard_failovers[shard]);
    }
  }
}

}  // namespace

const char* to_string(Protocol protocol) {
  return kProtocolNames[static_cast<int>(protocol)];
}

const char* to_string(DistScheme scheme) {
  switch (scheme) {
    case DistScheme::kSingleSite:
      return "single-site";
    case DistScheme::kGlobalCeiling:
      return "global-ceiling";
    case DistScheme::kLocalCeiling:
      return "local-ceiling";
    case DistScheme::kPartitionedCeiling:
      return "partitioned";
  }
  return "?";
}

const char* to_string(Partitioner partitioner) {
  switch (partitioner) {
    case Partitioner::kHash:
      return "hash";
    case Partitioner::kRange:
      return "range";
  }
  return "?";
}

const char* to_string(BackendKind backend) {
  switch (backend) {
    case BackendKind::kSim:
      return "sim";
    case BackendKind::kThreads:
      return "threads";
  }
  return "?";
}

System::System(SystemConfig config)
    : config_(config),
      schema_(db::DatabaseConfig{
          config.db_objects,
          config.scheme == DistScheme::kSingleSite ? 1 : config.sites,
          placement_for(config)}) {
  assert(config_.scheme == DistScheme::kSingleSite || config_.sites >= 2);
  assert(config_.lock_granularity >= 1);
  assert((config_.scheme == DistScheme::kSingleSite ||
          config_.lock_granularity == 1) &&
         "coarse locking granules are a single-site feature");
  config_.workload.assignment = assignment_for(config_);

  switch (config_.scheme) {
    case DistScheme::kSingleSite:
      build_single_site();
      break;
    case DistScheme::kLocalCeiling:
      build_local_ceiling();
      break;
    case DistScheme::kGlobalCeiling:
    case DistScheme::kPartitionedCeiling:
      build_partitioned_ceiling();
      break;
  }
  if (config_.conformance_check || config_.bounds_check) {
    attach_conformance();
  }
  schedule_faults();

  generator_ = std::make_unique<workload::TransactionGenerator>(
      kernel_, schema_, config_.workload, sim::RandomStream{config_.seed},
      [this](txn::TransactionSpec spec) { submit(std::move(spec)); });
}

System::~System() = default;

System::Site System::make_site_base(net::SiteId id) {
  Site site;
  site.cpu = std::make_unique<sched::PreemptiveCpu>(
      kernel_, config_.cpus_per_site, "cpu-" + std::to_string(id));
  site.io = std::make_unique<sched::IoSubsystem>(
      kernel_, config_.disks_per_site, "io-" + std::to_string(id));
  site.rm = std::make_unique<db::ResourceManager>(
      kernel_, schema_, id, *site.io, config_.io_per_object,
      config_.keep_version_history);
  return site;
}

void System::build_single_site() {
  Site site = make_site_base(0);
  site.cc = make_controller(kernel_, config_.protocol, config_.db_objects,
                            config_.victim_policy);
  site.executor = std::make_unique<txn::LocalExecutor>(
      txn::LocalExecutor::Services{
          &kernel_, site.cpu.get(), site.rm.get(), site.cc.get(),
          config_.record_history ? &history_ : nullptr},
      txn::LocalExecutor::Costs{config_.cpu_per_object,
                                use_priority_scheduling(),
                                config_.lock_granularity});
  site.tm = std::make_unique<txn::TransactionManager>(
      kernel_, *site.cc, *site.executor, monitor_,
      txn::TransactionManager::Options{config_.restart_backoff});
  site.tm->connect_cpu(*site.cpu);
  sites_.push_back(std::move(site));
}

void System::build_local_ceiling() {
  network_ = std::make_unique<net::Network>(kernel_, config_.sites,
                                            config_.comm_delay);
  const bool faulty = config_.faults.active();
  for (net::SiteId id = 0; id < config_.sites; ++id) {
    Site site = make_site_base(id);
    site.server = std::make_unique<net::MessageServer>(kernel_, *network_, id);
    site.channel = std::make_unique<net::ReliableChannel>(
        *site.server,
        net::ReliableChannel::Options{faulty, config_.retransmit_max,
                                      config_.backoff_base,
                                      config_.backoff_max},
        sim::RandomStream{config_.seed}.fork(kChannelStream + id));
    site.replication = std::make_unique<dist::ReplicationManager>(
        *site.server, *site.rm, site.channel.get());
    site.recovery = std::make_unique<dist::RecoveryManager>(
        *site.server, *site.rm,
        dist::RecoveryManager::Options{
            faulty ? 3 : 1,
            faulty ? config_.heartbeat_interval * 2 : sim::Duration::zero()},
        site.channel.get());
    site.cc =
        std::make_unique<cc::PriorityCeiling>(kernel_, config_.db_objects);
    site.executor = std::make_unique<dist::ReplicatedExecutor>(
        dist::ReplicatedExecutor::Services{
            &kernel_, site.cpu.get(), site.rm.get(), site.cc.get(),
            site.replication.get(), nullptr},
        dist::ReplicatedExecutor::Costs{config_.cpu_per_object,
                                        use_priority_scheduling()});
    site.tm = std::make_unique<txn::TransactionManager>(
        kernel_, *site.cc, *site.executor, monitor_,
        txn::TransactionManager::Options{config_.restart_backoff,
                                         config_.admission});
    site.tm->connect_cpu(*site.cpu);
    site.server->start();
    sites_.push_back(std::move(site));
  }
}

std::uint32_t System::effective_shards() const {
  if (config_.scheme == DistScheme::kGlobalCeiling) return 1;
  if (config_.scheme != DistScheme::kPartitionedCeiling) return 0;
  if (config_.shards != 0) return std::min(config_.shards, config_.sites);
  // Default: one shard per site, capped — past a handful of managers the
  // control plane is spread thin enough and standby cost dominates.
  return std::min(config_.sites, 8u);
}

std::function<std::uint32_t(db::ObjectId)> System::shard_fn() const {
  return [objects = config_.db_objects, shards = effective_shards(),
          partitioner = config_.partitioner](db::ObjectId object) {
    return shard_of(object, objects, shards, partitioner);
  };
}

// The global scheme is this layout at one shard: site 0 hosts its
// initially active manager, and under failover every site hosts a standby
// plus a coordinator. Its heartbeats stay raw: only the partitioned
// scheme's coordinators ride the batch channel, since batching the global
// scheme's beats would change its results (ext_scale_sweep's golden).
void System::build_partitioned_ceiling() {
  network_ = std::make_unique<net::Network>(kernel_, config_.sites,
                                            config_.comm_delay);
  const std::uint32_t shards = effective_shards();
  const bool faulty = config_.faults.active();
  const bool failover = faulty && config_.enable_failover;
  const bool batch_heartbeats =
      config_.scheme == DistScheme::kPartitionedCeiling;
  for (net::SiteId id = 0; id < config_.sites; ++id) {
    Site site = make_site_base(id);
    site.server = std::make_unique<net::MessageServer>(kernel_, *network_, id);
    // Ceiling control messages, replica updates, and recovery sync rounds
    // ride the reliable channel. Fault-free it is disabled — a verbatim
    // passthrough, keeping those runs bit-identical to earlier versions.
    site.channel = std::make_unique<net::ReliableChannel>(
        *site.server,
        net::ReliableChannel::Options{faulty, config_.retransmit_max,
                                      config_.backoff_base,
                                      config_.backoff_max},
        sim::RandomStream{config_.seed}.fork(kChannelStream + id));
    // Coalesces same-destination control traffic; a zero window (the
    // default) is an exact passthrough onto the reliable channel.
    site.batch = std::make_unique<net::BatchChannel>(
        *site.server, site.channel.get(),
        net::BatchChannel::Options{config_.batch_window});
    site.rpc_client = std::make_unique<net::RpcClient>(*site.server);
    site.rpc_dispatcher = std::make_unique<net::RpcDispatcher>(*site.server);
    // Presumed abort only matters once faults can lose the decision; the
    // fault-free default (zero timeout = wait forever) keeps runs
    // byte-identical to earlier artifact versions. Under faults the
    // participant also terminates cooperatively: it queries the round's
    // peers before presuming abort.
    const sim::Duration decision_timeout =
        faulty ? config_.commit_vote_timeout * 2 : sim::Duration::zero();
    site.data_server = std::make_unique<dist::DataServer>(
        *site.server, *site.rpc_dispatcher, *site.rm,
        txn::CommitParticipant::Options{decision_timeout, faulty});
    site.coordinator = std::make_unique<txn::CommitCoordinator>(*site.server);
    // Peer outcome queries are also answered from the co-located
    // coordinator's record — it knows the decision even when every
    // DecisionMsg of the round was lost.
    site.data_server->participant().set_outcome_source(
        [coordinator = site.coordinator.get()](std::uint64_t txn,
                                               std::uint64_t epoch) {
          return coordinator->outcome(txn, epoch);
        });
    if (schema_.placement() == db::Placement::kFullyReplicated) {
      // Replica catch-up after an outage (the global scheme's default
      // placement, shared with the local scheme); under faults, silent
      // sites are re-asked.
      site.recovery = std::make_unique<dist::RecoveryManager>(
          *site.server, *site.rm,
          dist::RecoveryManager::Options{
              faulty ? 3 : 1,
              faulty ? config_.heartbeat_interval * 2 : sim::Duration::zero()},
          site.channel.get());
    }
    // Under faults an acquire RPC can die with the manager; the per-try
    // timeout re-issues it (at the new manager once failover completes).
    // The window covers detection plus one failover round.
    const sim::Duration acquire_timeout =
        faulty ? config_.heartbeat_interval *
                     static_cast<std::int64_t>(
                         config_.heartbeat_miss_threshold + 2)
               : sim::Duration::zero();
    auto client = std::make_unique<dist::PartitionedCeilingClient>(
        kernel_, *site.server, *site.rpc_client,
        dist::PartitionedCeilingClient::Options{shards, shard_fn(),
                                                acquire_timeout},
        site.channel.get(), site.batch.get());
    // One handler slot per message type per site: the router owns them all
    // and demultiplexes on the shard field.
    site.router = std::make_unique<dist::ShardRouter>(
        *site.server, *site.rpc_dispatcher, shards);
    site.shard_managers.resize(shards);
    site.shard_failovers.resize(shards);
    for (std::uint32_t shard = 0; shard < shards; ++shard) {
      // Shard `shard`'s initially active manager lives at site `shard`;
      // under failover every site hosts a standby per shard.
      const bool host = id == shard;
      if (host || failover) {
        // Orphan reaping only under faults: a partition can outlast the
        // retransmit budget of a dead transaction's teardown messages, and
        // nothing else removes its mirror from a surviving manager.
        site.shard_managers[shard] =
            std::make_unique<dist::GlobalCeilingManager>(
                *site.server, config_.db_objects, host, faulty);
        site.router->set_manager(shard, site.shard_managers[shard].get());
      }
      if (failover) {
        // One election per shard, each an independent term space.
        site.shard_failovers[shard] =
            std::make_unique<dist::FailoverCoordinator>(
                *site.server,
                dist::FailoverCoordinator::Options{
                    config_.heartbeat_interval,
                    config_.heartbeat_miss_threshold,
                    /*initial_manager=*/shard, config_.sites,
                    config_.lease_interval, shard},
                dist::FailoverCoordinator::Hooks{
                    [manager = site.shard_managers[shard].get()](
                        std::uint64_t term) { manager->activate(term); },
                    [manager = site.shard_managers[shard].get()] {
                      manager->deactivate();
                    },
                    [manager = site.shard_managers[shard].get()](bool fenced) {
                      manager->set_fenced(fenced);
                    },
                    [client = client.get(), shard](net::SiteId manager,
                                                   std::uint64_t term) {
                      client->set_manager(shard, manager, term);
                    },
                    [this] { return !drained(); }});
        if (batch_heartbeats) {
          site.shard_failovers[shard]->set_batch(site.batch.get());
        }
        site.router->set_failover(shard, site.shard_failovers[shard].get());
      }
    }
    site.executor = std::make_unique<dist::GlobalExecutor>(
        dist::GlobalExecutor::Services{
            &kernel_, site.cpu.get(), site.rm.get(), &schema_, client.get(),
            site.server.get(), site.rpc_client.get(), site.coordinator.get(),
            config_.record_history ? &history_ : nullptr},
        dist::GlobalExecutor::Costs{config_.cpu_per_object,
                                    use_priority_scheduling(),
                                    config_.commit_vote_timeout});
    site.cc = std::move(client);
    site.tm = std::make_unique<txn::TransactionManager>(
        kernel_, *site.cc, *site.executor, monitor_,
        txn::TransactionManager::Options{config_.restart_backoff,
                                         config_.admission});
    site.tm->connect_cpu(*site.cpu);
    site.server->start();
    sites_.push_back(std::move(site));
  }
}

void System::attach_conformance() {
  conformance_ = std::make_unique<check::ConformanceMonitor>(kernel_);
  if (config_.bounds_check) {
    // Gate observed blocking episodes against the static analysis; an
    // Unbounded verdict measures without gating (nothing to compare to).
    const analysis::BlockingBounds bounds = analysis::analyze(config_);
    conformance_->arm_bounds(
        bounds.bounded ? std::optional<sim::Duration>(bounds.worst_bound)
                       : std::nullopt);
  }
  // The per-site controllers audit by protocol. Under the global and
  // partitioned schemes the site controller is the remote ceiling client
  // (structural checks only — the blockers are at the manager); the
  // managers' own protocol instances get the full ceiling audit below.
  const bool remote_client = config_.scheme == DistScheme::kGlobalCeiling ||
                             config_.scheme == DistScheme::kPartitionedCeiling;
  for (Site& site : sites_) {
    if (remote_client) {
      conformance_->attach(*site.cc, check::ProtocolFamily::kRemoteClient);
    } else {
      attach_audit(*conformance_, *site.cc, config_.protocol);
    }
    // Every (standby) manager audits as a full ceiling protocol — adoption
    // after failover included — plus grant scope: a manager granting an
    // object its shard does not own is a routing/config bug the ordinary
    // ceiling rules cannot see.
    for_each_manager(site, [&](std::uint32_t shard, auto& manager) {
      conformance_->attach_sharded(
          manager.protocol(), check::ProtocolFamily::kCeiling, shard,
          [shard, fn = shard_fn()](db::ObjectId object) {
            return fn(object) == shard;
          });
    });
    if (site.coordinator != nullptr) {
      site.coordinator->set_observer(conformance_->commit_observer());
    }
    if (site.data_server != nullptr) {
      site.data_server->participant().set_observer(
          conformance_->commit_observer());
    }
    // Lease audit, one instance per shard (every shard's election is an
    // independent term space): coordinators report term adoptions and
    // lease acquisitions/releases, managers the term stamped on each
    // grant, and clients the term of each grant they act on. Only
    // meaningful when the failover machinery is built — without it no
    // lease is ever acquired and every grant would read as fenceless.
    auto* client = dynamic_cast<dist::PartitionedCeilingClient*>(site.cc.get());
    for_each_failover(site, [&](std::uint32_t shard, auto& failover) {
      dist::LeaseObserver* observer = conformance_->lease_observer(shard);
      failover.set_observer(observer);
      if (site.shard_managers[shard] != nullptr) {
        site.shard_managers[shard]->set_lease_observer(observer);
      }
      if (client != nullptr) client->set_lease_observer(shard, observer);
    });
  }
}

void System::schedule_faults() {
  if (!config_.faults.active()) return;
  assert(network_ != nullptr &&
         "fault injection applies to the distributed schemes");
  if (config_.faults.message_faults()) {
    // Forked stream: the workload generator's draws are untouched by the
    // fault knobs, and the fault schedule is a pure function of the seed.
    constexpr std::uint64_t kFaultStream = 0xFA;
    network_->install_faults(config_.faults,
                             sim::RandomStream{config_.seed}.fork(kFaultStream));
  }
  for (const net::FaultSpec::Partition& partition : config_.faults.partitions) {
    // Pure data, no RNG: link cuts replay bit-identically for any --jobs N.
    const sim::TimePoint cut_at = sim::TimePoint::origin() + partition.at;
    kernel_.schedule_at(cut_at, [this, partition] {
      network_->apply_partition(partition);
    });
    if (partition.heal_after > sim::Duration::zero()) {
      kernel_.schedule_at(cut_at + partition.heal_after, [this, partition] {
        network_->lift_partition(partition);
      });
    }
  }
  for (const net::FaultSpec::Crash& crash : config_.faults.crashes) {
    assert(crash.site < config_.sites);
    const sim::TimePoint down_at = sim::TimePoint::origin() + crash.at;
    kernel_.schedule_at(down_at,
                        [this, site = crash.site] { crash_site(site); });
    if (crash.down_for > sim::Duration::zero()) {
      kernel_.schedule_at(down_at + crash.down_for,
                          [this, site = crash.site] { restore_site(site); });
    }
  }
}

void System::crash_site(net::SiteId site) {
  assert(network_ != nullptr && site < sites_.size());
  if (!network_->operational(site)) return;
  ++crashes_;
  // Network first: everything the dying attempts try to say on the way
  // down (release messages, votes) is lost, as fail-stop demands.
  network_->set_operational(site, false);
  Site& s = sites_[site];
  if (s.server != nullptr) {
    s.server->stop();
    network_->inbox(site).clear();  // undispatched inbox dies with the site
  }
  if (s.channel != nullptr) s.channel->on_crash();
  if (s.batch != nullptr) s.batch->on_crash();
  if (s.data_server != nullptr) s.data_server->on_crash();
  for_each_failover(s,
                    [](std::uint32_t, auto& failover) { failover.on_crash(); });
  for_each_manager(s, [](std::uint32_t, auto& manager) { manager.on_crash(); });
  s.tm->crash();
  // Idealized instantaneous failure detection at the lock managers: free
  // whatever the dead site's transactions held so survivors are not
  // blocked behind a corpse. (Standby managers hold no mirrors — no-op.)
  for (const Site& other : sites_) {
    for_each_manager(other, [site](std::uint32_t, auto& manager) {
      manager.abort_site(site);
    });
  }
}

void System::restore_site(net::SiteId site) {
  assert(network_ != nullptr && site < sites_.size());
  if (network_->operational(site)) return;
  network_->set_operational(site, true);
  Site& s = sites_[site];
  if (s.server != nullptr) s.server->start();
  s.tm->restore();
  for_each_failover(s, [](std::uint32_t, auto& failover) {
    failover.on_restore();
  });
  if (s.recovery != nullptr) s.recovery->request_catch_up();
}

void System::submit(txn::TransactionSpec spec) {
  assert(spec.home_site < sites_.size());
  sites_[spec.home_site].tm->submit(std::move(spec));
}

void System::start() {
  if (started_) return;
  started_ = true;
  generator_->start();
  for (const Site& site : sites_) {
    for_each_failover(site,
                      [](std::uint32_t, auto& failover) { failover.start(); });
  }
}

bool System::drained() const {
  if (generator_ == nullptr || !generator_->finished()) return false;
  for (const Site& site : sites_) {
    if (site.tm->live_count() > 0) return false;
  }
  return true;
}

void System::run_to_completion() {
  assert(config_.workload.periodic.empty() &&
         "periodic sources never drain; drive the kernel with run_until");
  start();
  kernel_.run();
}

stats::Metrics System::metrics() const {
  return stats::Metrics::compute(monitor_.records(),
                                 kernel_.now() - sim::TimePoint::origin());
}

RunResult System::counters() const {
  RunResult r;
  sim::Duration backoff_wait{};
  for (const Site& s : sites_) {
    r.restarts += s.tm->restarts();
    r.deadline_kills += s.tm->deadline_kills();
    r.crash_kills += s.tm->crash_kills();
    r.admitted += s.tm->admitted();
    r.shed += s.tm->shed();
    r.protocol_aborts += s.cc->protocol_aborts();
    // The site controller runs PCP itself under the single-site and local
    // schemes; under the global and partitioned ones it is the remote
    // ceiling client, and the managers below run PCP.
    if (const auto* pcp =
            dynamic_cast<const cc::PriorityCeiling*>(s.cc.get())) {
      r.ceiling_denials += pcp->ceiling_denials();
      r.dynamic_deadlocks += pcp->dynamic_deadlocks();
    } else if (const auto* client =
                   dynamic_cast<const dist::PartitionedCeilingClient*>(
                       s.cc.get())) {
      r.stale_grants_rejected += client->stale_grants_rejected();
    }
    for_each_manager(s, [&r](std::uint32_t, const auto& m) {
      r.protocol_aborts += m.protocol().protocol_aborts();
      r.ceiling_denials += m.protocol().ceiling_denials();
      r.dynamic_deadlocks += m.protocol().dynamic_deadlocks();
      r.orphan_locks_reclaimed += m.orphan_locks_reclaimed();
    });
    for_each_failover(s, [&r](std::uint32_t, const auto& f) {
      r.failovers += f.promotions();
      r.lease_expiries += f.lease_expiries();
    });
    if (s.coordinator != nullptr) {
      r.commit_rounds += s.coordinator->rounds();
      r.commit_aborts += s.coordinator->aborts();
      r.vote_timeouts += s.coordinator->vote_timeouts();
    }
    if (s.data_server != nullptr) {
      r.presumed_aborts += s.data_server->presumed_aborts();
      r.termination_queries += s.data_server->termination_queries();
      r.termination_resolutions += s.data_server->termination_resolutions();
    }
    if (s.recovery != nullptr) {
      r.versions_recovered += s.recovery->versions_recovered();
    }
    if (s.channel != nullptr) {
      r.retransmissions += s.channel->retransmissions();
      backoff_wait += s.channel->backoff_wait();
    }
    if (s.batch != nullptr) {
      r.batched_messages += s.batch->batched_messages();
      r.batch_flushes += s.batch->batch_flushes();
    }
  }
  r.backoff_wait_units = backoff_wait.as_units();
  if (config_.scheme == DistScheme::kPartitionedCeiling) {
    r.shard_migrations = r.failovers;
  }
  if (network_ != nullptr) {
    r.fault_drops = network_->fault_drops();
    r.fault_dups = network_->fault_duplicates();
    r.msgs_dropped = network_->messages_dropped();
    r.partition_drops = network_->partition_drops();
  }
  r.crashes = crashes_;
  r.elapsed = kernel_.now() - sim::TimePoint::origin();
  if (conformance_ != nullptr) {
    r.conformance_violations = conformance_->violations();
    r.wait_cycles_detected = conformance_->wait_cycles_detected();
    r.max_inversion_span_units = conformance_->max_inversion_span_units();
    r.observed_max_blocking_units = conformance_->observed_max_blocking_units();
    r.bound_violations = conformance_->bound_violations();
  }
  return r;
}

std::uint64_t System::invariant_violations(std::string* why) const {
  std::uint64_t n = 0;
  auto fail = [&](std::string reason) {
    ++n;
    if (why != nullptr && n == 1) *why = std::move(reason);
  };
  for (std::size_t id = 0; id < sites_.size(); ++id) {
    const Site& site = sites_[id];
    std::string reason;
    if (!site.cc->quiescent(&reason)) {
      fail("site " + std::to_string(id) + " controller not quiescent: " +
           reason);
    }
    for_each_manager(site, [&](std::uint32_t shard, const auto& manager) {
      const std::string where = "site " + std::to_string(id) + " shard " +
                                std::to_string(shard) + " manager ";
      if (manager.live_mirrors() != 0) {
        fail(where + "holds " + std::to_string(manager.live_mirrors()) +
             " live mirrors");
      }
      reason.clear();
      if (!manager.protocol().quiescent(&reason)) {
        fail(where + "protocol not quiescent: " + reason);
      }
    });
  }
  if (config_.record_history) {
    std::string reason;
    if (!history_.conflict_serializable(&reason)) {
      fail("history not conflict-serializable: " + reason);
    }
  }
  return n;
}

}  // namespace rtdb::core
