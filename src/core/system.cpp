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
      return config.global_partitioned ? db::Placement::kPartitioned
                                       : db::Placement::kFullyReplicated;
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
    case DistScheme::kGlobalCeiling:
      build_global_ceiling();
      break;
    case DistScheme::kLocalCeiling:
      build_local_ceiling();
      break;
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

System::Site System::make_site_base(net::SiteId id, db::Placement placement) {
  (void)placement;
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
  Site site = make_site_base(0, db::Placement::kSingleSite);
  site.cc = make_controller(kernel_, config_.protocol, config_.db_objects,
                            config_.victim_policy,
                            config_.pcp_deadlock_backstop);
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

void System::build_global_ceiling() {
  network_ = std::make_unique<net::Network>(kernel_, config_.sites,
                                            config_.comm_delay);
  constexpr net::SiteId kManagerSite = 0;
  const bool faulty = config_.faults.active();
  const bool failover = faulty && config_.enable_failover;
  for (net::SiteId id = 0; id < config_.sites; ++id) {
    Site site = make_site_base(id, schema_.placement());
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
      // Replica catch-up after an outage (shared with the local scheme);
      // under faults, silent sites are re-asked.
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
    auto client = std::make_unique<dist::GlobalCeilingClient>(
        kernel_, *site.server, *site.rpc_client,
        dist::GlobalCeilingClient::Options{kManagerSite, acquire_timeout},
        site.channel.get());
    client->set_batch(site.batch.get());
    // Site 0 hosts the initially active manager; with failover every site
    // hosts a standby instance the election can activate.
    if (id == kManagerSite || failover) {
      // Orphan reaping only under faults: a partition can outlast the
      // retransmit budget of a dead transaction's teardown messages, and
      // nothing else removes its mirror from a surviving manager.
      site.manager = std::make_unique<dist::GlobalCeilingManager>(
          *site.server, *site.rpc_dispatcher, config_.db_objects,
          id == kManagerSite, faulty);
    }
    if (failover) {
      site.failover = std::make_unique<dist::FailoverCoordinator>(
          *site.server,
          dist::FailoverCoordinator::Options{
              config_.heartbeat_interval, config_.heartbeat_miss_threshold,
              kManagerSite, config_.sites, config_.lease_interval},
          dist::FailoverCoordinator::Hooks{
              [manager = site.manager.get()](std::uint64_t term) {
                manager->activate(term);
              },
              [manager = site.manager.get()] { manager->deactivate(); },
              [manager = site.manager.get()](bool fenced) {
                manager->set_fenced(fenced);
              },
              [client = client.get()](net::SiteId manager,
                                      std::uint64_t term) {
                client->set_manager(manager, term);
              },
              [this] { return !drained(); }});
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

void System::build_local_ceiling() {
  network_ = std::make_unique<net::Network>(kernel_, config_.sites,
                                            config_.comm_delay);
  const bool faulty = config_.faults.active();
  for (net::SiteId id = 0; id < config_.sites; ++id) {
    Site site = make_site_base(id, db::Placement::kFullyReplicated);
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
    site.cc = std::make_unique<cc::PriorityCeiling>(
        kernel_, config_.db_objects,
        cc::PriorityCeiling::Options{false, config_.pcp_deadlock_backstop});
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

void System::build_partitioned_ceiling() {
  network_ = std::make_unique<net::Network>(kernel_, config_.sites,
                                            config_.comm_delay);
  const std::uint32_t shards = effective_shards();
  const bool faulty = config_.faults.active();
  const bool failover = faulty && config_.enable_failover;
  for (net::SiteId id = 0; id < config_.sites; ++id) {
    Site site = make_site_base(id, schema_.placement());
    site.server = std::make_unique<net::MessageServer>(kernel_, *network_, id);
    site.channel = std::make_unique<net::ReliableChannel>(
        *site.server,
        net::ReliableChannel::Options{faulty, config_.retransmit_max,
                                      config_.backoff_base,
                                      config_.backoff_max},
        sim::RandomStream{config_.seed}.fork(kChannelStream + id));
    site.batch = std::make_unique<net::BatchChannel>(
        *site.server, site.channel.get(),
        net::BatchChannel::Options{config_.batch_window});
    site.rpc_client = std::make_unique<net::RpcClient>(*site.server);
    site.rpc_dispatcher = std::make_unique<net::RpcDispatcher>(*site.server);
    const sim::Duration decision_timeout =
        faulty ? config_.commit_vote_timeout * 2 : sim::Duration::zero();
    site.data_server = std::make_unique<dist::DataServer>(
        *site.server, *site.rpc_dispatcher, *site.rm,
        txn::CommitParticipant::Options{decision_timeout, faulty});
    site.coordinator = std::make_unique<txn::CommitCoordinator>(*site.server);
    site.data_server->participant().set_outcome_source(
        [coordinator = site.coordinator.get()](std::uint64_t txn,
                                               std::uint64_t epoch) {
          return coordinator->outcome(txn, epoch);
        });
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
        site.shard_managers[shard] =
            std::make_unique<dist::GlobalCeilingManager>(
                dist::GlobalCeilingManager::Routed{}, *site.server,
                config_.db_objects, host, faulty);
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
                    config_.lease_interval, shard,
                    /*register_handlers=*/false},
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
        site.shard_failovers[shard]->set_batch(site.batch.get());
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
  // manager's own protocol instance gets the full ceiling audit below.
  const bool remote_client = config_.scheme == DistScheme::kGlobalCeiling ||
                             config_.scheme == DistScheme::kPartitionedCeiling;
  for (Site& site : sites_) {
    if (remote_client) {
      conformance_->attach(*site.cc, check::ProtocolFamily::kRemoteClient);
    } else {
      attach_audit(*conformance_, *site.cc, config_.protocol);
    }
    // Every (standby) manager audits as a full ceiling protocol — adoption
    // after failover included.
    if (site.manager != nullptr) {
      conformance_->attach(site.manager->protocol(),
                           check::ProtocolFamily::kCeiling);
    }
    // Shard managers additionally audit grant scope: a manager granting an
    // object its shard does not own is a routing/config bug the ordinary
    // ceiling rules cannot see.
    for (std::uint32_t shard = 0; shard < site.shard_managers.size();
         ++shard) {
      if (site.shard_managers[shard] == nullptr) continue;
      conformance_->attach_sharded(
          site.shard_managers[shard]->protocol(),
          check::ProtocolFamily::kCeiling, shard,
          [shard, fn = shard_fn()](db::ObjectId object) {
            return fn(object) == shard;
          });
    }
    if (site.coordinator != nullptr) {
      site.coordinator->set_observer(conformance_->commit_observer());
    }
    if (site.data_server != nullptr) {
      site.data_server->participant().set_observer(
          conformance_->commit_observer());
    }
    // Lease audit: coordinators report term adoptions and lease
    // acquisitions/releases, managers the term stamped on each grant, and
    // clients the term of each grant they act on. Only meaningful when the
    // failover machinery is built — without it no lease is ever acquired
    // and every grant would read as fenceless.
    if (site.failover != nullptr) {
      site.failover->set_observer(conformance_->lease_observer());
      if (site.manager != nullptr) {
        site.manager->set_lease_observer(conformance_->lease_observer());
      }
      if (auto* gcc = dynamic_cast<dist::GlobalCeilingClient*>(site.cc.get())) {
        gcc->set_lease_observer(conformance_->lease_observer());
      }
    }
    // Per-shard lease audits: every shard's election is an independent term
    // space, so each gets its own single-holder audit instance.
    for (std::uint32_t shard = 0; shard < site.shard_failovers.size();
         ++shard) {
      if (site.shard_failovers[shard] == nullptr) continue;
      dist::LeaseObserver* observer = conformance_->lease_observer(shard);
      site.shard_failovers[shard]->set_observer(observer);
      if (site.shard_managers[shard] != nullptr) {
        site.shard_managers[shard]->set_lease_observer(observer);
      }
      if (auto* pcc =
              dynamic_cast<dist::PartitionedCeilingClient*>(site.cc.get())) {
        pcc->set_lease_observer(shard, observer);
      }
    }
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
  if (s.failover != nullptr) s.failover->on_crash();
  if (s.manager != nullptr) s.manager->on_crash();
  for (auto& failover : s.shard_failovers) {
    if (failover != nullptr) failover->on_crash();
  }
  for (auto& manager : s.shard_managers) {
    if (manager != nullptr) manager->on_crash();
  }
  s.tm->crash();
  // Idealized instantaneous failure detection at the lock manager: free
  // whatever the dead site's transactions held so survivors are not
  // blocked behind a corpse. (Standby managers hold no mirrors — no-op.)
  for (Site& other : sites_) {
    if (other.manager != nullptr) other.manager->abort_site(site);
    for (auto& manager : other.shard_managers) {
      if (manager != nullptr) manager->abort_site(site);
    }
  }
}

void System::restore_site(net::SiteId site) {
  assert(network_ != nullptr && site < sites_.size());
  if (network_->operational(site)) return;
  network_->set_operational(site, true);
  Site& s = sites_[site];
  if (s.server != nullptr) s.server->start();
  s.tm->restore();
  if (s.failover != nullptr) s.failover->on_restore();
  for (auto& failover : s.shard_failovers) {
    if (failover != nullptr) failover->on_restore();
  }
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
  for (Site& site : sites_) {
    if (site.failover != nullptr) site.failover->start();
    for (auto& failover : site.shard_failovers) {
      if (failover != nullptr) failover->start();
    }
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

std::uint64_t System::total_restarts() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) n += site.tm->restarts();
  return n;
}

std::uint64_t System::total_deadline_kills() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) n += site.tm->deadline_kills();
  return n;
}

std::uint64_t System::total_protocol_aborts() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    n += site.cc->protocol_aborts();
    if (site.manager != nullptr) {
      n += site.manager->protocol().protocol_aborts();
    }
    for (const auto& manager : site.shard_managers) {
      if (manager != nullptr) n += manager->protocol().protocol_aborts();
    }
  }
  return n;
}

std::uint64_t System::total_ceiling_denials() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (const auto* pcp = dynamic_cast<const cc::PriorityCeiling*>(site.cc.get())) {
      n += pcp->ceiling_denials();
    }
    if (site.manager != nullptr) {
      n += site.manager->protocol().ceiling_denials();
    }
    for (const auto& manager : site.shard_managers) {
      if (manager != nullptr) n += manager->protocol().ceiling_denials();
    }
  }
  return n;
}

std::uint64_t System::total_dynamic_deadlocks() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (const auto* pcp = dynamic_cast<const cc::PriorityCeiling*>(site.cc.get())) {
      n += pcp->dynamic_deadlocks();
    }
    if (site.manager != nullptr) {
      n += site.manager->protocol().dynamic_deadlocks();
    }
    for (const auto& manager : site.shard_managers) {
      if (manager != nullptr) n += manager->protocol().dynamic_deadlocks();
    }
  }
  return n;
}

std::uint64_t System::total_crash_kills() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) n += site.tm->crash_kills();
  return n;
}

std::uint64_t System::total_commit_rounds() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.coordinator != nullptr) n += site.coordinator->rounds();
  }
  return n;
}

std::uint64_t System::total_commit_aborts() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.coordinator != nullptr) n += site.coordinator->aborts();
  }
  return n;
}

std::uint64_t System::total_vote_timeouts() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.coordinator != nullptr) n += site.coordinator->vote_timeouts();
  }
  return n;
}

std::uint64_t System::total_presumed_aborts() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.data_server != nullptr) n += site.data_server->presumed_aborts();
  }
  return n;
}

std::uint64_t System::total_versions_recovered() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.recovery != nullptr) n += site.recovery->versions_recovered();
  }
  return n;
}

std::uint64_t System::total_retransmissions() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.channel != nullptr) n += site.channel->retransmissions();
  }
  return n;
}

sim::Duration System::total_backoff_wait() const {
  sim::Duration total{};
  for (const Site& site : sites_) {
    if (site.channel != nullptr) total += site.channel->backoff_wait();
  }
  return total;
}

std::uint64_t System::total_failovers() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.failover != nullptr) n += site.failover->promotions();
    for (const auto& failover : site.shard_failovers) {
      if (failover != nullptr) n += failover->promotions();
    }
  }
  return n;
}

std::uint64_t System::total_termination_queries() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.data_server != nullptr) n += site.data_server->termination_queries();
  }
  return n;
}

std::uint64_t System::total_termination_resolutions() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.data_server != nullptr) {
      n += site.data_server->termination_resolutions();
    }
  }
  return n;
}

std::uint64_t System::total_orphan_locks_reclaimed() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.manager != nullptr) n += site.manager->orphan_locks_reclaimed();
    for (const auto& manager : site.shard_managers) {
      if (manager != nullptr) n += manager->orphan_locks_reclaimed();
    }
  }
  return n;
}

std::uint64_t System::total_partition_drops() const {
  return network_ != nullptr ? network_->partition_drops() : 0;
}

std::uint64_t System::total_lease_expiries() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.failover != nullptr) n += site.failover->lease_expiries();
    for (const auto& failover : site.shard_failovers) {
      if (failover != nullptr) n += failover->lease_expiries();
    }
  }
  return n;
}

std::uint64_t System::total_fence_denials() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.manager != nullptr) n += site.manager->fence_denials();
    for (const auto& manager : site.shard_managers) {
      if (manager != nullptr) n += manager->fence_denials();
    }
  }
  return n;
}

std::uint64_t System::total_stale_grants_rejected() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (const auto* client =
            dynamic_cast<const dist::GlobalCeilingClient*>(site.cc.get())) {
      n += client->stale_grants_rejected();
    }
    if (const auto* client =
            dynamic_cast<const dist::PartitionedCeilingClient*>(
                site.cc.get())) {
      n += client->stale_grants_rejected();
    }
  }
  return n;
}

std::uint64_t System::total_batched_messages() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.batch != nullptr) n += site.batch->batched_messages();
  }
  return n;
}

std::uint64_t System::total_batch_flushes() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    if (site.batch != nullptr) n += site.batch->batch_flushes();
  }
  return n;
}

std::uint64_t System::total_shard_migrations() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) {
    for (const auto& failover : site.shard_failovers) {
      if (failover != nullptr) n += failover->promotions();
    }
  }
  return n;
}

std::uint64_t System::total_admitted() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) n += site.tm->admitted();
  return n;
}

std::uint64_t System::total_shed() const {
  std::uint64_t n = 0;
  for (const Site& site : sites_) n += site.tm->shed();
  return n;
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
    if (site.manager != nullptr) {
      if (site.manager->live_mirrors() != 0) {
        fail("site " + std::to_string(id) + " manager holds " +
             std::to_string(site.manager->live_mirrors()) + " live mirrors");
      }
      reason.clear();
      if (!site.manager->protocol().quiescent(&reason)) {
        fail("site " + std::to_string(id) +
             " manager protocol not quiescent: " + reason);
      }
    }
    for (std::size_t shard = 0; shard < site.shard_managers.size(); ++shard) {
      const auto& manager = site.shard_managers[shard];
      if (manager == nullptr) continue;
      if (manager->live_mirrors() != 0) {
        fail("site " + std::to_string(id) + " shard " + std::to_string(shard) +
             " manager holds " + std::to_string(manager->live_mirrors()) +
             " live mirrors");
      }
      reason.clear();
      if (!manager->protocol().quiescent(&reason)) {
        fail("site " + std::to_string(id) + " shard " + std::to_string(shard) +
             " manager protocol not quiescent: " + reason);
      }
    }
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
