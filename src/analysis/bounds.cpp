#include "analysis/bounds.hpp"

#include <algorithm>
#include <string>

#include "dist/election.hpp"
#include "net/reliable.hpp"

namespace rtdb::analysis {

namespace {

// Real-clock wakeup overshoot allowed on the thread backend before an
// episode counts against the bound: condvar timeouts and cooperative
// abort checkpoints land late by OS-scheduling latency, not by protocol
// behavior. 500ms of real time, converted at the run's clock scale.
constexpr double kThreadJitterNanos = 500e6;

DerivationKind kind_of(const core::SystemConfig& config) {
  // The distributed schemes run ceiling managers regardless of the
  // single-site protocol knob.
  if (config.scheme != core::DistScheme::kSingleSite) {
    return DerivationKind::kSingleCriticalSection;
  }
  switch (config.protocol) {
    case core::Protocol::kPriorityCeiling:
    case core::Protocol::kPriorityCeilingExclusive:
      return DerivationKind::kSingleCriticalSection;
    case core::Protocol::kTwoPhase:
    case core::Protocol::kWoundWait:
      return DerivationKind::kFixedChain;
    case core::Protocol::kTwoPhasePriority:
    case core::Protocol::kPriorityInheritance:
    case core::Protocol::kHighPriority:
      return DerivationKind::kDeadlineBackstop;
    case core::Protocol::kTimestampOrdering:
    case core::Protocol::kWaitDie:
      return DerivationKind::kUnbounded;
  }
  return DerivationKind::kUnbounded;
}

std::string unbounded_reason(core::Protocol protocol) {
  if (protocol == core::Protocol::kTimestampOrdering) {
    return "restart-based: conflicts abort instead of blocking, and the "
           "restart count of one transaction has no finite bound under "
           "open-loop arrivals";
  }
  return "wait-die waits only behind younger holders, and a freshly "
         "arrived (still younger) transaction can seize a free lock and "
         "extend the transitive chain — newcomers are recruited without "
         "an arrival-independent limit";
}

std::string bounded_argument(DerivationKind kind) {
  switch (kind) {
    case DerivationKind::kSingleCriticalSection:
      return "ceiling blocking admits one lower-priority critical section "
             "and no newcomers; its holder is committed or watchdog-killed "
             "within the largest relative deadline";
    case DerivationKind::kFixedChain:
      return "the delaying set is fixed when the wait opens (FIFO admits "
             "newcomers only behind the waiter; wound-wait chains point to "
             "strictly older transactions) and drains within the largest "
             "relative deadline";
    case DerivationKind::kDeadlineBackstop:
      return "priority queues admit more-urgent cut-ins, but every cutter "
             "has an earlier deadline than the waiter, whose own watchdog "
             "closes the episode at its deadline at the latest";
    case DerivationKind::kUnbounded:
      break;
  }
  return "";
}

// The teardown / clock allowance added on top of every class bound.
// Returns false when some scheduled outage never ends — there is then no
// finite margin and the verdict degrades to Unbounded with `reason` set.
bool compute_margin(const core::SystemConfig& config, sim::Duration* margin,
                    std::string* reason) {
  *margin = sim::Duration::zero();
  if (config.scheme != core::DistScheme::kSingleSite) {
    // A blocked mirror at a ceiling manager stays observable until the
    // home site's release/abort reaches it: request, grant, release and
    // teardown acknowledgement hops, each possibly batched and jittered.
    const sim::Duration hop =
        config.comm_delay + config.batch_window + config.faults.jitter;
    *margin += 4 * hop;
    if (config.faults.message_faults()) {
      // Worst case every copy of one control message is lost until the
      // last retry: the full exponential backoff ladder plus one hop per
      // resend (net/reliable.hpp's schedule, evaluated statically).
      sim::Duration backoff = config.backoff_base;
      for (int attempt = 0; attempt < net::kRetransmitMax; ++attempt) {
        *margin += std::min(backoff, config.backoff_max) + hop;
        backoff = backoff * 2;
      }
    }
    if (!config.faults.crashes.empty() || !config.faults.partitions.empty()) {
      // Failure detection + promotion window before a successor manager
      // resumes granting (dist/failover.hpp).
      *margin += dist::kHeartbeatInterval *
                 (static_cast<std::int64_t>(dist::kHeartbeatMissThreshold) +
                  2);
    }
    for (const net::FaultSpec::Crash& crash : config.faults.crashes) {
      if (crash.down_for.is_zero()) {
        *reason = "a scheduled site crash never recovers, so manager-side "
                  "teardown of its blocked mirrors has no finite margin";
        return false;
      }
      *margin += crash.down_for;
    }
    for (const net::FaultSpec::Partition& partition :
         config.faults.partitions) {
      if (partition.heal_after.is_zero()) {
        *reason = "a scheduled link partition never heals, so release "
                  "traffic to the ceiling manager has no finite margin";
        return false;
      }
      *margin += partition.heal_after;
    }
  }
  if (config.backend == core::BackendKind::kThreads) {
    const double unit_nanos =
        static_cast<double>(std::max<std::uint64_t>(1, config.rt_unit_nanos));
    *margin += sim::Duration::from_units(kThreadJitterNanos / unit_nanos);
  }
  return true;
}

// The per-class relative deadlines, computed exactly as the workload
// generator does (generator.cpp): aperiodic D = (est * size) scaled by the
// worst slack draw, periodic D = period scaled by the source's slack.
std::vector<ClassBound> enumerate_classes(const core::SystemConfig& config) {
  std::vector<ClassBound> classes;
  const workload::WorkloadConfig& w = config.workload;
  if (w.transaction_count > 0 && w.size_min <= w.size_max) {
    // Bounds are monotone in size; a pathologically wide size range keeps
    // only its endpoints (the worst bound is exact either way).
    std::vector<std::uint32_t> sizes;
    if (w.size_max - w.size_min <= 64) {
      for (std::uint32_t size = w.size_min; size <= w.size_max; ++size) {
        sizes.push_back(size);
      }
    } else {
      sizes = {w.size_min, w.size_max};
    }
    for (const std::uint32_t size : sizes) {
      ClassBound c;
      c.label = "size=" + std::to_string(size);
      c.relative_deadline =
          (w.est_time_per_object * static_cast<std::int64_t>(size))
              .scaled(w.slack_max);
      classes.push_back(std::move(c));
    }
  }
  for (std::size_t i = 0; i < w.periodic.size(); ++i) {
    const workload::PeriodicSource& source = w.periodic[i];
    ClassBound c;
    c.label = "periodic[" + std::to_string(i) + "]";
    c.relative_deadline = source.period.scaled(source.deadline_slack);
    classes.push_back(std::move(c));
  }
  return classes;
}

}  // namespace

const char* to_string(DerivationKind kind) {
  switch (kind) {
    case DerivationKind::kSingleCriticalSection:
      return "single-critical-section";
    case DerivationKind::kFixedChain:
      return "fixed-chain";
    case DerivationKind::kDeadlineBackstop:
      return "deadline-backstop";
    case DerivationKind::kUnbounded:
      return "unbounded";
  }
  return "?";
}

BlockingBounds analyze(const core::SystemConfig& config) {
  BlockingBounds result;
  result.kind = kind_of(config);
  if (result.kind == DerivationKind::kUnbounded) {
    result.argument = unbounded_reason(config.protocol);
    return result;
  }

  std::string margin_reason;
  if (!compute_margin(config, &result.margin, &margin_reason)) {
    result.kind = DerivationKind::kUnbounded;
    result.argument = std::move(margin_reason);
    result.margin = sim::Duration::zero();
    return result;
  }

  result.classes = enumerate_classes(config);
  sim::Duration r_max = sim::Duration::zero();
  for (const ClassBound& c : result.classes) {
    r_max = std::max(r_max, c.relative_deadline);
  }
  for (ClassBound& c : result.classes) {
    c.bound = std::min(c.relative_deadline, r_max);
    result.worst_bound = std::max(result.worst_bound, c.bound + result.margin);
  }
  result.bounded = true;
  result.argument = bounded_argument(result.kind);
  return result;
}

}  // namespace rtdb::analysis
