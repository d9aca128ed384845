#include "rt/lock_table.hpp"

#include <cassert>
#include <utility>

#include "cc/hp2pl.hpp"
#include "cc/pcp.hpp"
#include "cc/wait_die.hpp"
#include "core/protocol.hpp"

namespace rtdb::rt {

RtLockTable::RtLockTable(Options options, ThreadBackend& backend)
    : backend_(backend),
      cc_(core::make_controller(kernel_, options.protocol,
                                options.object_count, options.victim_policy)) {
  cc_->set_hooks(cc::ControllerHooks{
      [this](db::TxnId victim, cc::AbortReason reason) {
        abort_attempt(victim, reason);
      },
      // No CPU scheduler to tell: a thread runs at its own OS priority.
      {}});
  if (options.audit) {
    monitor_ = std::make_unique<check::ConformanceMonitor>(kernel_);
    core::attach_audit(*monitor_, *cc_, options.protocol);
    if (!options.bound_gate.is_zero()) monitor_->arm_bounds(options.bound_gate);
  }
}

void RtLockTable::enter(PqSpinLock::Node& node, sim::Priority priority) {
  latch_.lock(node, priority);
  kernel_.run_until(backend_.now());
}

void RtLockTable::leave() {
  kernel_.run();
  std::vector<WaitToken*> wakes;
  wakes.swap(pending_wakes_);
  latch_.unlock();
  for (WaitToken* token : wakes) backend_.wake(*token);
}

sim::Task<void> RtLockTable::serve(RtTxn& txn) {
  sim::Semaphore inbox{kernel_, 0};
  txn.inbox = &inbox;
  struct Detach {
    RtTxn& txn;
    ~Detach() { txn.inbox = nullptr; }  // killed or not, the inbox is gone
  } detach{txn};
  for (;;) {
    co_await inbox.acquire();
    txn.result = co_await cc_->acquire(txn, txn.object, txn.mode);
    txn.done = true;
    if (txn.parked) pending_wakes_.push_back(&txn.token);
  }
}

void RtLockTable::abort_attempt(db::TxnId victim, cc::AbortReason reason) {
  const auto it = active_.find(victim);
  assert(it != active_.end() && "abort hook for an attempt not begun");
  RtTxn& txn = *it->second;
  active_.erase(it);
  kernel_.kill(txn.process);
  cc_->release_all(txn);
  cc_->on_end(txn);
  txn.abort_reason = reason;
  txn.aborted.store(true, std::memory_order_release);
  if (txn.parked) pending_wakes_.push_back(&txn.token);
}

void RtLockTable::on_begin(RtTxn& txn) {
  PqSpinLock::Node node;
  enter(node, txn.base_priority);
  // A fresh controller view per attempt; identity, priority, deadline and
  // the declared set carry over.
  cc::CcTxn fresh;
  fresh.id = txn.id;
  fresh.attempt = txn.attempt + 1;
  fresh.base_priority = txn.base_priority;
  fresh.deadline = txn.deadline;
  fresh.access = std::move(txn.access);
  static_cast<cc::CcTxn&>(txn) = std::move(fresh);
  txn.aborted.store(false, std::memory_order_relaxed);
  txn.parked = false;
  [[maybe_unused]] const bool fresh_id = active_.emplace(txn.id, &txn).second;
  assert(fresh_id && "on_begin for an attempt already begun");
  cc_->on_begin(txn);
  txn.process = kernel_.spawn("attempt", serve(txn));
  leave();
}

std::optional<cc::AbortReason> RtLockTable::acquire(RtTxn& txn,
                                                    db::ObjectId object,
                                                    cc::LockMode mode) {
  PqSpinLock::Node node;
  enter(node, txn.base_priority);
  if (!txn.aborted.load(std::memory_order_relaxed)) {
    assert(txn.inbox != nullptr && "acquire after the attempt's process ended");
    txn.object = object;
    txn.mode = mode;
    txn.done = false;
    txn.inbox->release();
    kernel_.run();
  }
  while (!txn.done && !txn.aborted.load(std::memory_order_relaxed)) {
    // Suspended in the controller: park until a grant or an abort wakes
    // us. A wake meant for an earlier park can still arrive, so the
    // outcome is re-checked under the latch after every return.
    txn.parked = true;
    txn.token.reset();
    leave();
    const bool woken = backend_.block(txn.token, txn.deadline);
    enter(node, txn.base_priority);
    txn.parked = false;
    if (!woken && !txn.done && !txn.aborted.load(std::memory_order_relaxed)) {
      // The deadline passed while queued: the kill destroys the pending
      // acquire, whose guards withdraw the wait.
      kernel_.kill(txn.process);
      leave();
      return cc::AbortReason::kDeadlineMiss;
    }
  }
  const std::optional<cc::AbortReason> outcome =
      txn.aborted.load(std::memory_order_relaxed)
          ? std::optional<cc::AbortReason>(txn.abort_reason)
          : txn.result;
  leave();
  return outcome;
}

std::optional<cc::AbortReason> RtLockTable::release_all(RtTxn& txn) {
  PqSpinLock::Node node;
  enter(node, txn.base_priority);
  std::optional<cc::AbortReason> ended;
  if (txn.aborted.load(std::memory_order_relaxed)) {
    ended = txn.abort_reason;
  } else {
    cc_->release_all(txn);
  }
  leave();
  return ended;
}

void RtLockTable::on_end(RtTxn& txn) {
  PqSpinLock::Node node;
  enter(node, txn.base_priority);
  if (!txn.aborted.load(std::memory_order_relaxed)) {
    active_.erase(txn.id);
    cc_->on_end(txn);
    kernel_.kill(txn.process);  // a no-op after a deadline kill
  }
  leave();
}

RtLockStats RtLockTable::stats() const {
  PqSpinLock::Guard guard{latch_, sim::Priority::highest()};
  RtLockStats s;
  s.grants = cc_->grants();
  s.blocks = cc_->blocks();
  s.protocol_aborts = cc_->protocol_aborts();
  if (const auto* c = dynamic_cast<const cc::TwoPhaseLocking*>(cc_.get())) {
    s.deadlocks = c->deadlocks();
  }
  if (const auto* c = dynamic_cast<const cc::PriorityCeiling*>(cc_.get())) {
    s.pcp_dynamic_deadlocks = c->dynamic_deadlocks();
    s.ceiling_denials = c->ceiling_denials();
  }
  if (const auto* c = dynamic_cast<const cc::HighPriority2PL*>(cc_.get())) {
    s.wounds = c->wounds();
  }
  if (const auto* c = dynamic_cast<const cc::AgeBased2PL*>(cc_.get())) {
    s.wounds = c->wounds();
  }
  if (monitor_ != nullptr) {
    s.audit_violations = monitor_->violations();
    s.max_block_span = monitor_->observed_max_blocking();
    s.bound_violations = monitor_->bound_violations();
  }
  return s;
}

bool RtLockTable::quiescent(std::string* why) const {
  PqSpinLock::Guard guard{latch_, sim::Priority::highest()};
  if (!cc_->quiescent(why)) return false;
  if (!active_.empty() || kernel_.live_process_count() != 0) {
    if (why != nullptr) {
      *why = "rt: " + std::to_string(active_.size()) + " attempts and " +
             std::to_string(kernel_.live_process_count()) +
             " processes still live";
    }
    return false;
  }
  return true;
}

std::string RtLockTable::first_audit_failure() const {
  PqSpinLock::Guard guard{latch_, sim::Priority::highest()};
  if (monitor_ == nullptr || monitor_->reports().empty()) return {};
  const check::Violation& first = monitor_->reports().front();
  return first.rule + ": " + first.detail;
}

}  // namespace rtdb::rt
