#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cc/controller.hpp"
#include "check/commit_audit.hpp"
#include "check/lease_audit.hpp"
#include "check/lock_audit.hpp"
#include "check/trace_ring.hpp"
#include "check/tso_audit.hpp"
#include "check/violation.hpp"
#include "sim/kernel.hpp"

namespace rtdb::check {

// The conformance subsystem's front door: owns one audit per attached
// controller, a shared CommitAudit for the 2PC machinery, the shared trace
// event ring, and the violation reports. Everything is a pure observer —
// attaching the monitor changes no protocol decision, and a disabled
// monitor is never constructed at all, so fault-free artifacts stay
// byte-identical with checking off.
//
// All bookkeeping is driven by the deterministic simulation (virtual time,
// ordered containers), so the scalars it feeds into the artifacts are a
// pure function of (config, seed) like every other run scalar.
class ConformanceMonitor {
 public:
  struct Options {
    std::size_t trace_capacity = 256;  // events retained in the ring
    std::size_t trace_window = 24;     // events dumped per violation
    std::size_t max_reports = 16;      // full reports retained (count is not capped)
  };

  explicit ConformanceMonitor(sim::Kernel& kernel)
      : ConformanceMonitor(kernel, Options{}) {}
  ConformanceMonitor(sim::Kernel& kernel, Options options);

  ConformanceMonitor(const ConformanceMonitor&) = delete;
  ConformanceMonitor& operator=(const ConformanceMonitor&) = delete;

  // Creates the family's audit and installs it as `controller`'s observer.
  // The monitor must outlive the controller's last event.
  void attach(cc::ConcurrencyController& controller, ProtocolFamily family);

  // Partitioned scheme: like attach, but the family audit is wrapped in a
  // shard-scope check — a grant/adoption of an object `in_shard` rejects
  // is flagged as shard.wrong_shard_grant (a manager can never hand out a
  // lock its shard does not own).
  void attach_sharded(cc::ConcurrencyController& controller,
                      ProtocolFamily family, std::uint32_t shard,
                      std::function<bool(db::ObjectId)> in_shard);

  // Timestamp ordering holds no locks; it gets the timestamp-shadow audit
  // instead of a lock-family one.
  void attach_timestamp(cc::ConcurrencyController& controller);

  // The shared 2PC audit, for CommitCoordinator/CommitParticipant::
  // set_observer. One instance serves every site.
  txn::CommitObserver* commit_observer() { return &commit_audit_; }

  // The lease audit of one shard, for FailoverCoordinator::set_observer,
  // GlobalCeilingManager::set_lease_observer and the ceiling client. One
  // instance sees every site's lease events for the shard, which is
  // exactly what lets it detect two holders. Each shard's election runs an
  // independent term space, so a shared audit would see two legitimate
  // holders; a per-shard instance keeps the single-holder rule exact
  // within the shard (the global scheme is shard 0). Lazily created;
  // stable for the monitor's life.
  dist::LeaseObserver* lease_observer(std::uint32_t shard);

  // Arms the blocking-bound gate (src/analysis): every blocking episode
  // longer than `gate` is reported under bound.blocking and counted into
  // bound_violations() — a separate scalar, not a conformance violation,
  // so theory-vs-observation failures stay distinguishable from protocol
  // rule breaks. nullopt arms measurement only (the analyzer returned an
  // Unbounded verdict: spans are recorded, nothing is flagged).
  void arm_bounds(std::optional<sim::Duration> gate) {
    bound_gate_ = gate;
  }

  // ---- run scalars ----
  std::uint64_t violations() const { return violations_; }
  std::uint64_t wait_cycles_detected() const { return wait_cycles_; }
  double max_inversion_span_units() const {
    return max_inversion_.as_units();
  }
  std::uint64_t bound_violations() const { return bound_violations_; }
  double observed_max_blocking_units() const {
    return max_blocking_.as_units();
  }
  sim::Duration observed_max_blocking() const { return max_blocking_; }

  const std::vector<Violation>& reports() const { return reports_; }
  // Every retained report with its trace window, ready for stderr.
  std::string format_reports() const;

  // ---- sink interface used by the audits ----
  void record(TraceEvent event) {
    event.at = kernel_.now();
    ring_.record(event);
  }
  void report(std::string rule, std::string detail);
  void note_cycle() { ++wait_cycles_; }
  void note_inversion(sim::Duration span) {
    if (span > max_inversion_) max_inversion_ = span;
  }
  // One closed blocking episode (block → unblock) of `txn`, reported by
  // the lock audits. Tracks the observed maximum and, when the bound gate
  // is armed, flags spans the static analysis proved impossible.
  void note_blocking(const cc::CcTxn& txn, sim::Duration span);
  sim::TimePoint now() const { return kernel_.now(); }

 private:
  sim::Kernel& kernel_;
  Options options_;
  TraceRing ring_;
  std::vector<std::unique_ptr<cc::CcObserver>> lock_audits_;
  CommitAudit commit_audit_;
  std::map<std::uint32_t, std::unique_ptr<LeaseAudit>> shard_lease_audits_;
  std::vector<Violation> reports_;
  std::uint64_t violations_ = 0;
  std::uint64_t wait_cycles_ = 0;
  sim::Duration max_inversion_{};
  std::optional<sim::Duration> bound_gate_;
  std::uint64_t bound_violations_ = 0;
  sim::Duration max_blocking_{};
};

}  // namespace rtdb::check
