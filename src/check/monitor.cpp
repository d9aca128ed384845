#include "check/monitor.hpp"

#include <sstream>
#include <utility>

#include "check/shard_audit.hpp"

namespace rtdb::check {

ConformanceMonitor::ConformanceMonitor(sim::Kernel& kernel, Options options)
    : kernel_(kernel),
      options_(options),
      ring_(options.trace_capacity),
      commit_audit_(*this) {}

void ConformanceMonitor::attach(cc::ConcurrencyController& controller,
                                ProtocolFamily family) {
  lock_audits_.push_back(std::make_unique<LockAudit>(*this, family));
  controller.set_observer(lock_audits_.back().get());
}

void ConformanceMonitor::attach_sharded(
    cc::ConcurrencyController& controller, ProtocolFamily family,
    std::uint32_t shard, std::function<bool(db::ObjectId)> in_shard) {
  lock_audits_.push_back(std::make_unique<ShardScopeAudit>(
      *this, family, shard, std::move(in_shard)));
  controller.set_observer(lock_audits_.back().get());
}

void ConformanceMonitor::attach_timestamp(
    cc::ConcurrencyController& controller) {
  lock_audits_.push_back(std::make_unique<TsoAudit>(*this));
  controller.set_observer(lock_audits_.back().get());
}

dist::LeaseObserver* ConformanceMonitor::lease_observer(std::uint32_t shard) {
  auto it = shard_lease_audits_.find(shard);
  if (it == shard_lease_audits_.end()) {
    it = shard_lease_audits_
             .emplace(shard, std::make_unique<LeaseAudit>(*this))
             .first;
  }
  return it->second.get();
}

void ConformanceMonitor::report(std::string rule, std::string detail) {
  ++violations_;
  if (reports_.size() >= options_.max_reports) return;
  reports_.push_back(Violation{kernel_.now(), std::move(rule),
                               std::move(detail),
                               ring_.window(options_.trace_window)});
}

void ConformanceMonitor::note_blocking(const cc::CcTxn& txn,
                                       sim::Duration span) {
  if (span > max_blocking_) max_blocking_ = span;
  if (!bound_gate_ || span <= *bound_gate_) return;
  // Observation beat theory: either the protocol blocked longer than its
  // structural argument allows, or the analyzer's bound (or margin) is
  // wrong. Both are reportable defects; the count is its own scalar so
  // the artifact separates them from protocol rule breaks.
  ++bound_violations_;
  if (reports_.size() >= options_.max_reports) return;
  std::ostringstream detail;
  detail << "txn " << txn.id.value << "/" << txn.attempt
         << " observed a blocking episode of " << span.to_string()
         << ", exceeding the analytic worst case "
         << bound_gate_->to_string();
  reports_.push_back(Violation{kernel_.now(), "bound.blocking", detail.str(),
                               ring_.window(options_.trace_window)});
}

std::string ConformanceMonitor::format_reports() const {
  std::ostringstream out;
  for (const Violation& violation : reports_) {
    out << "conformance violation [" << violation.rule << "] at "
        << violation.at.to_string() << ": " << violation.detail << "\n"
        << "trace window (oldest first):\n"
        << violation.trace;
  }
  if (violations_ + bound_violations_ > reports_.size()) {
    out << "... " << (violations_ + bound_violations_ - reports_.size())
        << " further violation(s) not retained\n";
  }
  return out.str();
}

}  // namespace rtdb::check
