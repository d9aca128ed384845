#include "check/lock_audit.hpp"

#include <sstream>
#include <string>

#include "check/monitor.hpp"

namespace rtdb::check {

namespace {

std::string priority_string(sim::Priority p) {
  // Appends rather than `"(" + std::to_string(...)`, which GCC 12 flags
  // with a false-positive -Wrestrict.
  std::string text = "(";
  text += std::to_string(p.key());
  text += ',';
  text += std::to_string(p.tie());
  text += ')';
  return text;
}

}  // namespace

const char* to_string(ProtocolFamily family) {
  switch (family) {
    case ProtocolFamily::kTwoPhase:
      return "two-phase";
    case ProtocolFamily::kCeiling:
      return "ceiling";
    case ProtocolFamily::kHighPriority:
      return "high-priority";
    case ProtocolFamily::kWaitDie:
      return "wait-die";
    case ProtocolFamily::kWoundWait:
      return "wound-wait";
    case ProtocolFamily::kRemoteClient:
      return "remote-client";
  }
  return "?";
}

LockAudit::LockAudit(ConformanceMonitor& monitor, ProtocolFamily family)
    : monitor_(monitor), family_(family) {}

LockAudit::ShadowTxn& LockAudit::shadow_of(const cc::CcTxn& txn) {
  ShadowTxn& shadow = txns_[txn.id.value];
  if (shadow.attempt != txn.attempt) {
    // A new attempt restarts the attempt-scoped state (two-phase rule,
    // held set) even when the begin event was missed.
    shadow = ShadowTxn{};
    shadow.attempt = txn.attempt;
  }
  shadow.base = txn.base_priority;
  return shadow;
}

void LockAudit::on_txn_begin(const cc::CcTxn& txn) {
  monitor_.record({{}, "begin", txn.id.value, txn.attempt, 0, 0});
  ShadowTxn fresh;
  fresh.attempt = txn.attempt;
  fresh.base = txn.base_priority;
  fresh.began = true;
  if (family_ == ProtocolFamily::kCeiling) {
    const auto ops = txn.access.operations();
    fresh.declared.assign(ops.begin(), ops.end());
  }
  txns_[txn.id.value] = std::move(fresh);
}

void LockAudit::on_txn_end(const cc::CcTxn& txn) {
  monitor_.record({{}, "end", txn.id.value, txn.attempt, 0, 0});
  auto it = txns_.find(txn.id.value);
  if (it != txns_.end()) {
    close_inversion(txn.id.value, it->second);
    close_wait(txn, it->second);
    txns_.erase(it);
  }
  graph_.remove(txn.id.value);
}

void LockAudit::on_grant(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode) {
  monitor_.record({{},
                   "grant",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   mode == cc::LockMode::kWrite ? 1 : 0});
  ShadowTxn& shadow = shadow_of(txn);
  check_two_phase(txn, shadow, object);
  if (family_ == ProtocolFamily::kCeiling) check_ceiling_grant(txn, object);
  check_compat(txn, object, mode, "granted");
  install(shadow, object, mode);
}

void LockAudit::on_adopt(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode) {
  monitor_.record({{},
                   "adopt",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   mode == cc::LockMode::kWrite ? 1 : 0});
  // Adoption reinstalls a lock a previous manager already granted, so the
  // ceiling grant rule is legitimately skipped — but ownership must still
  // be single-writer ("orphan-lock adoption leaves no double owner").
  ShadowTxn& shadow = shadow_of(txn);
  check_compat(txn, object, mode, "adopted");
  install(shadow, object, mode);
}

void LockAudit::on_block(const cc::CcTxn& txn, db::ObjectId object,
                         cc::LockMode mode,
                         std::span<cc::CcTxn* const> blockers) {
  monitor_.record({{},
                   "block",
                   txn.id.value,
                   txn.attempt,
                   static_cast<std::int64_t>(object),
                   static_cast<std::int64_t>(blockers.size())});
  ShadowTxn& shadow = shadow_of(txn);

  // Age orientation: the flavour's wait rule makes every edge point the
  // same way along the (never reused) transaction-id order, which is what
  // proves the wait-for graph acyclic. An edge against that order means
  // the protocol waited where it had to die (or wound).
  if (family_ == ProtocolFamily::kWaitDie ||
      family_ == ProtocolFamily::kWoundWait) {
    for (const cc::CcTxn* blocker : blockers) {
      const bool waiter_older = txn.id.value < blocker->id.value;
      const bool ok =
          family_ == ProtocolFamily::kWaitDie ? waiter_older : !waiter_older;
      if (!ok) {
        std::ostringstream detail;
        detail << "txn " << txn.id.value << " waits behind "
               << (family_ == ProtocolFamily::kWaitDie ? "older" : "younger")
               << " txn " << blocker->id.value << " on object " << object;
        monitor_.report(family_ == ProtocolFamily::kWaitDie
                            ? "wait_die.age_order"
                            : "wound_wait.age_order",
                        detail.str());
      }
    }
  }

  // Wait-for graph upkeep + cycle detection.
  std::vector<std::uint64_t> edge_targets;
  edge_targets.reserve(blockers.size());
  for (const cc::CcTxn* blocker : blockers) {
    edge_targets.push_back(blocker->id.value);
  }
  if (graph_.set_edges(txn.id.value, std::move(edge_targets))) {
    monitor_.note_cycle();
    if (family_ == ProtocolFamily::kWaitDie ||
        family_ == ProtocolFamily::kWoundWait) {
      // Age-ordered waiting is provably deadlock-free; a closed cycle is a
      // protocol bug, not a condition a detector is allowed to fix later.
      std::ostringstream detail;
      detail << "wait-for cycle through txn " << txn.id.value << ":";
      for (const std::uint64_t member : graph_.last_cycle()) {
        detail << " " << member;
      }
      monitor_.report("age.wait_cycle", detail.str());
    }
  }

  // Blocking episode for the bound gate: opened by the first block of a
  // wait, closed by the matching unblock (grant, abort, or kill — the
  // observer contract guarantees exactly one per block).
  if (!shadow.waiting) {
    shadow.waiting = true;
    shadow.wait_start = monitor_.now();
  }

  // Priority-inversion span: a higher-priority transaction starts waiting
  // behind at least one lower-priority holder.
  if (!shadow.inversion) {
    for (const cc::CcTxn* blocker : blockers) {
      if (txn.base_priority.higher_than(blocker->base_priority)) {
        shadow.inversion = true;
        shadow.inversion_start = monitor_.now();
        break;
      }
    }
  }
  (void)mode;
}

void LockAudit::on_unblock(const cc::CcTxn& txn) {
  monitor_.record({{}, "unblock", txn.id.value, txn.attempt, 0, 0});
  graph_.clear_waiter(txn.id.value);
  auto it = txns_.find(txn.id.value);
  if (it != txns_.end()) {
    close_inversion(txn.id.value, it->second);
    close_wait(txn, it->second);
  }
}

void LockAudit::on_release_all(const cc::CcTxn& txn) {
  monitor_.record({{}, "release", txn.id.value, txn.attempt, 0, 0});
  ShadowTxn& shadow = shadow_of(txn);
  shadow.held.clear();
  shadow.released = true;
}

void LockAudit::on_abort(db::TxnId victim, cc::AbortReason reason) {
  monitor_.record({{},
                   "abort",
                   victim.value,
                   0,
                   static_cast<std::int64_t>(reason),
                   0});
  // The victim's unblock/release events settle the shadow state; the abort
  // itself only needs to land in the trace.
}

void LockAudit::install(ShadowTxn& shadow, db::ObjectId object,
                        cc::LockMode mode) {
  auto [it, inserted] = shadow.held.try_emplace(object, mode);
  if (!inserted && mode == cc::LockMode::kWrite) {
    it->second = cc::LockMode::kWrite;  // upgrade; a write covers the read
  }
}

void LockAudit::check_two_phase(const cc::CcTxn& txn, const ShadowTxn& shadow,
                                db::ObjectId object) {
  if (!shadow.released) return;
  std::ostringstream detail;
  detail << "txn " << txn.id.value << "/" << txn.attempt
         << " granted object " << object
         << " after its release_all (two-phase rule)";
  monitor_.report("lock.two_phase", detail.str());
}

void LockAudit::check_compat(const cc::CcTxn& txn, db::ObjectId object,
                             cc::LockMode mode, const char* how) {
  for (const auto& [id, other] : txns_) {
    if (id == txn.id.value) continue;
    auto held = other.held.find(object);
    if (held == other.held.end()) continue;
    if (mode == cc::LockMode::kRead && held->second == cc::LockMode::kRead) {
      continue;  // read-read is the one compatible pair
    }
    std::ostringstream detail;
    detail << "txn " << txn.id.value << "/" << txn.attempt << " " << how
           << " a " << cc::to_string(mode) << " lock on object " << object
           << " already " << cc::to_string(held->second) << "-held by txn "
           << id;
    monitor_.report("lock.conflict", detail.str());
  }
}

sim::Priority LockAudit::declared_abs_ceiling(db::ObjectId object) const {
  sim::Priority ceiling = sim::Priority::lowest();
  for (const auto& [id, shadow] : txns_) {
    (void)id;
    if (!shadow.began) continue;
    for (const cc::Operation& op : shadow.declared) {
      if (op.object != object) continue;
      ceiling = sim::Priority::stronger(ceiling, shadow.base);
      break;
    }
  }
  return ceiling;
}

sim::Priority LockAudit::declared_write_ceiling(db::ObjectId object) const {
  sim::Priority ceiling = sim::Priority::lowest();
  for (const auto& [id, shadow] : txns_) {
    (void)id;
    if (!shadow.began) continue;
    for (const cc::Operation& op : shadow.declared) {
      if (op.object != object || op.mode != cc::LockMode::kWrite) continue;
      ceiling = sim::Priority::stronger(ceiling, shadow.base);
      break;
    }
  }
  return ceiling;
}

void LockAudit::check_ceiling_grant(const cc::CcTxn& txn, db::ObjectId object) {
  // Exact replay of PriorityCeiling::can_grant against the shadow state:
  // the grant is legal iff the requester's *base* priority is strictly
  // higher than the strongest rw-ceiling among locks held (at least
  // partly) by other transactions.
  struct LockedObject {
    bool write_locked = false;
    bool held_by_other = false;
  };
  std::map<db::ObjectId, LockedObject> locked;
  for (const auto& [id, shadow] : txns_) {
    for (const auto& [held_object, held_mode] : shadow.held) {
      LockedObject& entry = locked[held_object];
      if (held_mode == cc::LockMode::kWrite) entry.write_locked = true;
      if (id != txn.id.value) entry.held_by_other = true;
    }
  }
  bool blocked = false;
  sim::Priority strongest = sim::Priority::lowest();
  db::ObjectId blocking_object = 0;
  for (const auto& [locked_object, entry] : locked) {
    if (!entry.held_by_other) continue;
    // "When a data object is write-locked, the rw-priority ceiling ... is
    // equal to the absolute priority ceiling. When it is read-locked ...
    // equal to the write-priority ceiling."
    const sim::Priority ceiling = entry.write_locked
                                      ? declared_abs_ceiling(locked_object)
                                      : declared_write_ceiling(locked_object);
    if (!blocked || ceiling.higher_than(strongest)) {
      strongest = ceiling;
      blocking_object = locked_object;
    }
    blocked = true;
  }
  if (!blocked || txn.base_priority.higher_than(strongest)) return;
  std::ostringstream detail;
  detail << "txn " << txn.id.value << "/" << txn.attempt << " base "
         << priority_string(txn.base_priority) << " granted object " << object
         << " despite rw-ceiling " << priority_string(strongest)
         << " of locked object " << blocking_object;
  monitor_.report("pcp.grant_rule", detail.str());
}

void LockAudit::close_inversion(std::uint64_t txn, ShadowTxn& shadow) {
  (void)txn;
  if (!shadow.inversion) return;
  shadow.inversion = false;
  monitor_.note_inversion(monitor_.now() - shadow.inversion_start);
}

void LockAudit::close_wait(const cc::CcTxn& txn, ShadowTxn& shadow) {
  if (!shadow.waiting) return;
  shadow.waiting = false;
  monitor_.note_blocking(txn, monitor_.now() - shadow.wait_start);
}

}  // namespace rtdb::check
