#pragma once

#include <cstdint>

#include "cc/two_phase.hpp"
#include "net/fault.hpp"
#include "sched/disk.hpp"
#include "sim/time.hpp"
#include "txn/admission.hpp"
#include "workload/config.hpp"

namespace rtdb::core {

// The synchronization protocol of a single-site system — the UI menu's
// "concurrency control: locking, timestamp ordering, and priority-based".
enum class Protocol : std::uint8_t {
  kTwoPhase,                  // plain 2PL, FIFO queues          (curve L)
  kTwoPhasePriority,          // 2PL, priority queues            (curve P)
  kPriorityCeiling,           // the ceiling protocol            (curve C)
  kPriorityCeilingExclusive,  // ablation: exclusive-only locks
  kPriorityInheritance,       // basic inheritance (§3.1)
  kHighPriority,              // 2PL-HP wound-based ([Abb88] line of work)
  kTimestampOrdering,         // basic TO
  kWaitDie,                   // age-based wait-die 2PL
  kWoundWait,                 // age-based wound-wait 2PL
};

const char* to_string(Protocol protocol);

// Distribution scheme of §4 (plus the scale-out extension).
enum class DistScheme : std::uint8_t {
  kSingleSite,
  kGlobalCeiling,  // one global ceiling manager, locks across the network
  kLocalCeiling,   // per-site ceiling managers over full replication
  // DPCP-style resource agents: the object space is sharded across
  // per-shard ceiling managers (each a full GlobalCeilingManager over its
  // shard's declared sets), data is partitioned single-copy, and each
  // shard runs its own lease-fenced failover. Removes the single-manager
  // serialization point the global scheme funnels everything through.
  kPartitionedCeiling,
};

const char* to_string(DistScheme scheme);

// How kPartitionedCeiling splits the object space across shards.
enum class Partitioner : std::uint8_t {
  kHash,   // splitmix64-mixed object id: spreads hot keys across shards
  kRange,  // contiguous slices: concentrates Zipfian hot ranks on shard 0
};

const char* to_string(Partitioner partitioner);

// The shard owning `object`; pure function of the config so the client,
// the router, and the conformance audit agree without coordination.
inline std::uint32_t shard_of(std::uint32_t object, std::uint32_t db_objects,
                              std::uint32_t shards, Partitioner partitioner) {
  if (shards <= 1) return 0;
  if (partitioner == Partitioner::kRange) {
    const std::uint32_t span = (db_objects + shards - 1) / shards;
    const std::uint32_t shard = object / span;
    return shard < shards ? shard : shards - 1;
  }
  // splitmix64 finalizer: cheap, deterministic, platform-independent.
  std::uint64_t z = object;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % shards);
}

// Execution substrate: the discrete-event simulation (default; virtual
// time, byte-identical artifacts per seed) or the real-hardware thread
// backend (src/rt: worker pool + steady clock; statistically
// reproducible). Single-site scheme only for kThreads.
enum class BackendKind : std::uint8_t {
  kSim,
  kThreads,
};

const char* to_string(BackendKind backend);

// Everything the User Interface of the prototyping environment lets an
// experimenter set: system configuration (sites, relative CPU / I/O /
// communication costs), database configuration, load characteristics, and
// the concurrency-control choice.
struct SystemConfig {
  // ---- system configuration ----
  std::uint32_t sites = 1;
  int cpus_per_site = 1;
  int disks_per_site = sched::IoSubsystem::kUnlimited;  // parallel I/O
  sim::Duration cpu_per_object = sim::Duration::units(2);
  sim::Duration io_per_object = sim::Duration::units(1);
  sim::Duration comm_delay = sim::Duration::zero();

  // ---- database configuration ----
  std::uint32_t db_objects = 200;
  // Objects per locking granule (the UI's granularity knob); > 1 trades
  // lock-management work for false conflicts. Single-site schemes only.
  std::uint32_t lock_granularity = 1;
  bool keep_version_history = false;  // multi-version temporal reads (§4)

  // ---- concurrency control ----
  Protocol protocol = Protocol::kPriorityCeiling;
  DistScheme scheme = DistScheme::kSingleSite;
  // kPartitionedCeiling: ceiling-manager shards (0 = one per site, capped
  // at 8) and how objects map onto them. Shard s's initial manager is site
  // s, so shards never exceeds the site count.
  std::uint32_t shards = 0;
  Partitioner partitioner = Partitioner::kHash;
  // Control-message batching (global + partitioned ceiling schemes): sends
  // to the same destination within this window coalesce into one framed
  // message (net::BatchChannel). Zero = off — the channel is an exact
  // passthrough and runs stay byte-identical to builds without it. Keep
  // the window well under dist::kHeartbeatInterval: the partitioned scheme's
  // heartbeats ride the batch too (the global scheme's go out raw), and a
  // window that swallows a whole beat delays failure detection.
  sim::Duration batch_window{};
  cc::TwoPhaseLocking::VictimPolicy victim_policy =
      cc::TwoPhaseLocking::VictimPolicy::kLowestPriority;

  // ---- fault injection (distributed schemes; see net/fault.hpp) ----
  // All fault decisions draw from a stream forked off `seed`, so a zero
  // spec is bit-identical to a build without fault injection and `--jobs N`
  // replay determinism is preserved.
  net::FaultSpec faults;
  // 2PC coordinator vote-collection window (global scheme); a missing vote
  // counts as NO. The default matches the value the executor historically
  // hardcoded, keeping fault-free runs byte-identical.
  sim::Duration commit_vote_timeout = sim::Duration::units(10000);

  // ---- resilience (distributed schemes; engaged only when faults.active())
  // Ceiling-manager failover: every site hosts a standby manager plus a
  // heartbeat-driven FailoverCoordinator; when the elected manager crashes,
  // the next live site by id promotes itself and rebuilds the lock state
  // from the clients' re-registrations. The manager is declared dead after
  // dist::kHeartbeatMissThreshold silent dist::kHeartbeatInterval beats,
  // and its lease lasts one beat less.
  bool enable_failover = true;
  // Reliable control channel (acked, retransmitting; net::kRetransmitMax
  // retries per message): the base of the exponential retransmission
  // backoff, and its saturation cap (a long partition must not double the
  // wait into overflow).
  sim::Duration backoff_base = sim::Duration::units(8);
  sim::Duration backoff_max = sim::Duration::units(256);

  // ---- load characteristics ----
  workload::WorkloadConfig workload;
  // Deadline-aware admission control / overload shedding (per-site
  // transaction managers; see txn/admission.hpp). Off by default.
  txn::AdmissionConfig admission;

  // ---- execution backend ----
  BackendKind backend = BackendKind::kSim;
  // Thread backend only: worker pool size (0 = one per hardware core) and
  // real nanoseconds per simulation time unit (the clock scale).
  std::uint32_t rt_workers = 0;
  std::uint64_t rt_unit_nanos = 20'000;

  // ---- experiment control ----
  std::uint64_t seed = 1;
  bool record_history = false;  // conflict-serializability oracle
  // Online protocol conformance auditing (src/check): shadow every
  // controller and the 2PC machinery and flag invariant violations as they
  // happen. Off by default — when false the monitor is never constructed
  // and no protocol code path changes. An RTDB_CHECK build flips the
  // default so the whole test/bench surface runs audited.
#ifdef RTDB_CHECK
  bool conformance_check = true;
#else
  bool conformance_check = false;
#endif
  // Blocking-bound auditing (src/analysis + check::ConformanceMonitor):
  // statically derive the per-protocol worst-case blocking episode and
  // flag any observed episode that exceeds it (scalar bound_violations).
  // Constructs the conformance monitor even when conformance_check is
  // off; protocols with an Unbounded verdict are measured, never gated.
  bool bounds_check = false;
};

}  // namespace rtdb::core
