#include "cc/pcp.hpp"

#include <algorithm>
#include <cassert>
#include <span>

namespace rtdb::cc {

using sim::Priority;

bool PriorityCeiling::LockState::held_by_other(const CcTxn& txn) const {
  if (writer != nullptr && writer != &txn) return true;
  return std::any_of(readers.begin(), readers.end(),
                     [&](const CcTxn* r) { return r != &txn; });
}

PriorityCeiling::PriorityCeiling(sim::Kernel& kernel,
                                 std::uint32_t object_count, Options options)
    : ConcurrencyController(kernel),
      options_(options),
      object_count_(object_count) {}

PriorityCeiling::~PriorityCeiling() {
  assert(waiters_.empty() && "destroyed with blocked transactions");
}

void PriorityCeiling::do_begin(CcTxn& txn) {
  assert(!active_.contains(txn.id));
  if (lock_slots_.empty()) {
    // First transaction: size the per-object tables now, so an instance
    // that never sees one (a standby ceiling manager) allocates nothing.
    write_ceiling_.assign(object_count_, Priority::lowest());
    abs_ceiling_.assign(object_count_, Priority::lowest());
    decls_.resize(object_count_);
    lock_slots_.resize(object_count_);
  }
  assert(txn.inherited == Priority::lowest() && "stale inherited priority");
  active_.emplace(txn.id, &txn);
  add_declarations(txn);
  // New declarations only *raise* ceilings, so nothing becomes grantable —
  // but a raise can redirect which lock blocks an existing waiter, which
  // is exactly the (dynamic-arrival) way a blocking cycle can close.
  stabilize(nullptr);
}

void PriorityCeiling::do_end(CcTxn& txn) {
  assert(active_.contains(txn.id));
  active_.erase(txn.id);
  if (txn.inherited != Priority::lowest()) --inheriting_;
  set_inherited(txn, Priority::lowest());
  remove_declarations(txn);
  // Lowered ceilings may unblock waiters.
  stabilize(nullptr);
}

sim::Task<std::optional<AbortReason>> PriorityCeiling::acquire(
    CcTxn& txn, db::ObjectId object, LockMode mode) {
  assert(object < object_count_);
  assert(active_.contains(txn.id) && "acquire before on_begin");
  mode = effective_mode(mode);

  if (can_grant(txn)) {
    grant(txn, object, mode);
    count_grant();
    notify_grant(txn, object, mode);
    co_return std::nullopt;
  }

  // Denied. The ceiling protocol may forbid locking an unlocked object;
  // count that separately — it is the protocol's "insurance premium".
  const bool object_unlocked = !is_locked(object);
  if (object_unlocked) {
    ++ceiling_denials_;
    ++txn.ceiling_blocks;
  }

  sim::Semaphore wakeup{kernel_, 0};
  Waiter waiter{&txn, object, mode, &wakeup, false, next_seq_++};
  // Waiters wake in assigned-priority order (the same order the grant test
  // uses).
  auto pos = std::find_if(waiters_.begin(), waiters_.end(), [&](const Waiter* w) {
    const Priority a = txn.base_priority;
    const Priority b = w->txn->base_priority;
    if (a != b) return a.higher_than(b);
    return waiter.seq < w->seq;
  });
  waiters_.insert(pos, &waiter);
  begin_block(txn);
  if (observer() != nullptr) {
    // The transactions blocking this request right now: the holders of the
    // strongest-ceiling lock (what the transaction semantically waits on).
    std::vector<CcTxn*> blockers;
    if (const LockState* blocking = strongest_blocking_lock(txn)) {
      if (blocking->writer != nullptr && blocking->writer != &txn) {
        blockers.push_back(blocking->writer);
      }
      for (CcTxn* reader : blocking->readers) {
        if (reader != &txn) blockers.push_back(reader);
      }
    }
    notify_block(txn, object, mode, blockers);
  }

  struct Cleanup {
    PriorityCeiling* self;
    Waiter* waiter;
    ~Cleanup() {
      if (!waiter->granted) {
        // Killed while blocked, or the backstop's victim: withdraw the
        // wait and settle inheritance.
        auto it = std::find(self->waiters_.begin(), self->waiters_.end(), waiter);
        assert(it != self->waiters_.end());
        self->waiters_.erase(it);
        self->end_block(*waiter->txn);
        self->stabilize(nullptr);
      }
    }
  } cleanup{this, &waiter};

  if (stabilize(&txn)) {
    // This request closed a dynamic-arrival cycle and is its victim.
    co_return AbortReason::kDeadlockVictim;
  }
  co_await wakeup.acquire();
  assert(waiter.granted);
  count_grant();
  co_return std::nullopt;
}

void PriorityCeiling::do_release_all(CcTxn& txn) {
  for (std::size_t i = 0; i < locked_ids_.size();) {
    const db::ObjectId object = locked_ids_[i];
    LockState& lock = lock_slots_[object];
    if (lock.writer == &txn) lock.writer = nullptr;
    for (auto* r = lock.readers.begin(); r != lock.readers.end();) {
      if (*r == &txn) {
        r = lock.readers.erase(r);
      } else {
        ++r;
      }
    }
    if (lock.empty()) {
      locked_ids_.erase(locked_ids_.begin() +
                        static_cast<std::ptrdiff_t>(i));
    } else {
      refresh_rw_ceiling(object, lock);
      ++i;
    }
  }
  stabilize(nullptr);
}

std::string_view PriorityCeiling::name() const {
  return options_.exclusive_only ? "PCP-X" : "PCP";
}

bool PriorityCeiling::holds(const CcTxn& txn, db::ObjectId object,
                            LockMode mode) const {
  if (object >= lock_slots_.size()) return false;
  const LockState& lock = lock_slots_[object];
  if (lock.writer == &txn) return true;  // a write lock covers reads too
  if (effective_mode(mode) == LockMode::kWrite) return false;
  return std::find(lock.readers.begin(), lock.readers.end(), &txn) !=
         lock.readers.end();
}

void PriorityCeiling::adopt(CcTxn& txn, db::ObjectId object, LockMode mode) {
  assert(object < object_count_);
  assert(active_.contains(txn.id) && "adopt before on_begin");
  if (holds(txn, object, mode)) return;
  // The old manager already ran the grant rule for this lock; re-install
  // it directly and settle inheritance/ceilings around the restored state.
  grant(txn, object, effective_mode(mode));
  notify_adopt(txn, object, effective_mode(mode));
  stabilize(nullptr);
}

bool PriorityCeiling::quiescent(std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = "PCP: " + reason;
    return false;
  };
  if (!active_.empty()) {
    return fail(std::to_string(active_.size()) + " transactions still active");
  }
  if (!locked_ids_.empty()) {
    return fail("lock table still holds " + std::to_string(locked_ids_.size()) +
                " object(s), first=" + std::to_string(locked_ids_.front()));
  }
  if (!waiters_.empty()) {
    return fail(std::to_string(waiters_.size()) + " waiters still queued");
  }
  for (db::ObjectId o = 0; o < write_ceiling_.size(); ++o) {
    if (write_ceiling_[o] != Priority::lowest() ||
        abs_ceiling_[o] != Priority::lowest()) {
      return fail("stale ceiling on object " + std::to_string(o));
    }
  }
  return true;
}

Priority PriorityCeiling::write_ceiling(db::ObjectId object) const {
  assert(object < object_count_);
  if (object >= write_ceiling_.size()) return Priority::lowest();
  return options_.exclusive_only ? abs_ceiling_[object]
                                 : write_ceiling_[object];
}

Priority PriorityCeiling::absolute_ceiling(db::ObjectId object) const {
  assert(object < object_count_);
  if (object >= abs_ceiling_.size()) return Priority::lowest();
  return abs_ceiling_[object];
}

std::optional<Priority> PriorityCeiling::rw_ceiling(db::ObjectId object) const {
  if (object >= lock_slots_.size() || lock_slots_[object].empty()) {
    return std::nullopt;
  }
  return lock_slots_[object].rw_ceiling;
}

bool PriorityCeiling::is_locked(db::ObjectId object) const {
  return object < lock_slots_.size() && !lock_slots_[object].empty();
}

std::vector<db::TxnId> PriorityCeiling::lower_priority_blockers_of(
    const CcTxn& txn) const {
  // The transactions with priority lower than txn's base priority that hold
  // the lock blocking txn right now.
  std::vector<db::TxnId> result;
  if (!txn.blocked) return result;
  const LockState* blocking = strongest_blocking_lock(txn);
  if (blocking == nullptr) return result;
  auto consider = [&](const CcTxn* holder) {
    if (holder != &txn && txn.base_priority.higher_than(holder->base_priority)) {
      result.push_back(holder->id);
    }
  };
  if (blocking->writer != nullptr) consider(blocking->writer);
  for (const CcTxn* reader : blocking->readers) consider(reader);
  return result;
}

std::size_t PriorityCeiling::lower_priority_blocking_txns(
    const CcTxn& txn) const {
  std::vector<const CcTxn*> blockers;  // distinct; populations are tiny
  for (const db::ObjectId object : locked_ids_) {
    const LockState& lock = lock_slots_[object];
    if (!lock.held_by_other(txn)) continue;
    if (txn.base_priority.higher_than(lock.rw_ceiling)) continue;  // no deny
    auto consider = [&](const CcTxn* holder) {
      if (holder != &txn &&
          txn.base_priority.higher_than(holder->base_priority) &&
          std::find(blockers.begin(), blockers.end(), holder) ==
              blockers.end()) {
        blockers.push_back(holder);
      }
    };
    if (lock.writer != nullptr) consider(lock.writer);
    for (const CcTxn* reader : lock.readers) consider(reader);
  }
  return blockers.size();
}

const PriorityCeiling::LockState* PriorityCeiling::strongest_blocking_lock(
    const CcTxn& txn) const {
  const LockState* best = nullptr;
  for (const db::ObjectId object : locked_ids_) {
    const LockState& lock = lock_slots_[object];
    if (!lock.held_by_other(txn)) continue;
    if (best == nullptr || lock.rw_ceiling.higher_than(best->rw_ceiling)) {
      best = &lock;
    }
  }
  return best;
}

bool PriorityCeiling::passes_ceiling(const CcTxn& txn,
                                     const LockState* blocking) {
  // The ceiling test uses the transaction's *assigned* priority, never the
  // inherited one: inheritance exists to speed up a blocking holder's
  // execution, not to let it pass ceilings. (Using the effective priority
  // here would let a transaction outrank its own object's write ceiling
  // and acquire a conflicting lock.) Because every ceiling includes the
  // requester's own declaration, base-priority comparison also subsumes
  // the direct read/write conflict test, as §3.2 argues.
  return blocking == nullptr ||
         txn.base_priority.higher_than(blocking->rw_ceiling);
}

bool PriorityCeiling::can_grant(const CcTxn& txn) const {
  return passes_ceiling(txn, strongest_blocking_lock(txn));
}

void PriorityCeiling::grant(CcTxn& txn, db::ObjectId object, LockMode mode) {
  LockState& lock = lock_slots_[object];
  if (lock.empty()) {
    locked_ids_.insert(
        std::lower_bound(locked_ids_.begin(), locked_ids_.end(), object),
        object);
  }
  if (mode == LockMode::kWrite) {
    assert(lock.writer == nullptr && lock.readers.empty() &&
           "ceiling rule admitted a conflicting write");
    lock.writer = &txn;
  } else {
    assert(lock.writer == nullptr &&
           "ceiling rule admitted a read under a write lock");
    lock.readers.push_back(&txn);
  }
  refresh_rw_ceiling(object, lock);
}

void PriorityCeiling::add_declarations(const CcTxn& txn) {
  // AccessSet lists each object at most once (writes coalesced), so each
  // operation appends exactly one declarer entry.
  for (const Operation& op : txn.access.operations()) {
    auto& decls = decls_[op.object];
    assert(std::find_if(decls.begin(), decls.end(), [&](const Declarer& d) {
             return d.txn == &txn;
           }) == decls.end());
    const bool is_write = op.mode == LockMode::kWrite;
    decls.push_back(Declarer{&txn, is_write});
    abs_ceiling_[op.object] =
        Priority::stronger(abs_ceiling_[op.object], txn.base_priority);
    if (is_write) {
      write_ceiling_[op.object] =
          Priority::stronger(write_ceiling_[op.object], txn.base_priority);
    }
    LockState& lock = lock_slots_[op.object];
    if (!lock.empty()) refresh_rw_ceiling(op.object, lock);
  }
}

void PriorityCeiling::remove_declarations(const CcTxn& txn) {
  for (const Operation& op : txn.access.operations()) {
    auto& decls = decls_[op.object];
    auto it = std::find_if(decls.begin(), decls.end(),
                           [&](const Declarer& d) { return d.txn == &txn; });
    assert(it != decls.end());
    decls.erase(it);
    Priority write = Priority::lowest();
    Priority abs = Priority::lowest();
    for (const Declarer& d : decls) {
      abs = Priority::stronger(abs, d.txn->base_priority);
      if (d.write) write = Priority::stronger(write, d.txn->base_priority);
    }
    write_ceiling_[op.object] = write;
    abs_ceiling_[op.object] = abs;
    LockState& lock = lock_slots_[op.object];
    if (!lock.empty()) refresh_rw_ceiling(op.object, lock);
  }
}

void PriorityCeiling::refresh_rw_ceiling(db::ObjectId object,
                                         LockState& lock) {
  assert(!lock.empty());
  // "When a data object is write-locked, the rw-priority ceiling ... is
  // equal to the absolute priority ceiling. When it is read-locked ...
  // equal to the write-priority ceiling."
  lock.rw_ceiling = lock.writer != nullptr ? abs_ceiling_[object]
                                           : write_ceiling(object);
}

bool PriorityCeiling::stabilize(const CcTxn* requester) {
  // Alternate inheritance and granting until neither changes anything:
  // a grant changes the lock set (new ceilings to respect), inheritance
  // changes effective priorities (new grants may pass the ceiling test).
  // A backstop abort re-enters through release_all/on_end; the dirty flag
  // folds that into the outer loop instead of recursing.
  if (stabilizing_) {
    restabilize_ = true;
    return false;
  }
  // With no waiter and no inherited priority, every step below is a no-op.
  if (waiters_.empty() && inheriting_ == 0) return false;
  stabilizing_ = true;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }  // on every exit, the running victim's too
  } reset{stabilizing_};
  do {
    restabilize_ = false;
    do {
      update_inheritance();
    } while (grant_pass());
    switch (resolve_dynamic_deadlock(requester)) {
      case Backstop::kQuiet:
        break;
      case Backstop::kAborted:
        restabilize_ = true;
        break;
      case Backstop::kAbortedRunning:
        return true;
    }
  } while (restabilize_);
  return false;
}

PriorityCeiling::Backstop PriorityCeiling::resolve_dynamic_deadlock(
    const CcTxn* requester) {
  if (waiters_.empty()) return Backstop::kQuiet;
  // Blocked-by graph: each waiter points at the holders of its current
  // strongest blocking lock (found by the last update_inheritance()).
  // Every node on a cycle is a waiter (only waiters have outgoing edges),
  // so any victim is safely abortable. The adjacency lists live in reused
  // flat scratch (`ddl_targets_` spans), attached to nodes through their
  // epoch-stamped scratch marks.
  assert(blocking_scratch_.size() == waiters_.size());
  ddl_targets_.clear();
  ddl_spans_.clear();
  const std::uint64_t edge_epoch = ++ddl_epoch_;
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    const Waiter* waiter = waiters_[i];
    const LockState* blocking = blocking_scratch_[i];
    if (blocking == nullptr) continue;
    const auto first = static_cast<std::uint32_t>(ddl_targets_.size());
    if (blocking->writer != nullptr && blocking->writer != waiter->txn) {
      ddl_targets_.push_back(blocking->writer);
    }
    for (CcTxn* reader : blocking->readers) {
      if (reader != waiter->txn) ddl_targets_.push_back(reader);
    }
    waiter->txn->scratch_edge_epoch = edge_epoch;
    waiter->txn->scratch_edge_index =
        static_cast<std::uint32_t>(ddl_spans_.size());
    ddl_spans_.emplace_back(first,
                            static_cast<std::uint32_t>(ddl_targets_.size()));
  }

  // DFS from each waiter in turn, with colours (0 white, 1 grey, 2 black)
  // kept across starts: a node finished by an earlier start reaches no
  // cycle, so skipping it changes neither the first cycle found nor its
  // victim.
  const std::uint64_t colour_epoch = ++ddl_epoch_;
  auto colour_of = [&](const CcTxn* node) -> int {
    return node->scratch_colour_epoch == colour_epoch ? node->scratch_colour
                                                      : 0;
  };
  auto set_colour = [&](CcTxn* node, int c) {
    node->scratch_colour_epoch = colour_epoch;
    node->scratch_colour = static_cast<std::uint8_t>(c);
  };
  auto targets_of = [&](const CcTxn* node) -> std::span<CcTxn* const> {
    if (node->scratch_edge_epoch != edge_epoch) return {};
    const auto& [first, last] = ddl_spans_[node->scratch_edge_index];
    return {ddl_targets_.data() + first, ddl_targets_.data() + last};
  };
  for (const Waiter* start : waiters_) {
    if (colour_of(start->txn) != 0) continue;
    ddl_path_.clear();
    ddl_stack_.clear();
    set_colour(start->txn, 1);
    ddl_path_.push_back(start->txn);
    ddl_stack_.push_back(DdlFrame{start->txn, 0});
    while (!ddl_stack_.empty()) {
      DdlFrame& frame = ddl_stack_.back();
      const auto targets = targets_of(frame.node);
      if (frame.next >= targets.size()) {
        set_colour(frame.node, 2);
        ddl_path_.pop_back();
        ddl_stack_.pop_back();
        continue;
      }
      CcTxn* next = targets[frame.next++];
      if (colour_of(next) == 1) {
        // Cycle: pick the lowest-priority member as victim.
        auto it = std::find(ddl_path_.begin(), ddl_path_.end(), next);
        assert(it != ddl_path_.end());
        const CcTxn* victim = *it;
        for (auto member = it; member != ddl_path_.end(); ++member) {
          if (victim->effective_priority().higher_than(
                  (*member)->effective_priority())) {
            victim = *member;
          }
        }
        ++dynamic_deadlocks_;
        count_protocol_abort();
        notify_abort(victim->id, AbortReason::kDeadlockVictim);
        // The requester's own acquire returns the abort; its guard
        // withdraws the wait.
        if (victim == requester) return Backstop::kAbortedRunning;
        assert(hooks_.abort_txn != nullptr);
        hooks_.abort_txn(victim->id, AbortReason::kDeadlockVictim);
        return Backstop::kAborted;
      }
      if (colour_of(next) == 0) {
        set_colour(next, 1);
        ddl_path_.push_back(next);
        ddl_stack_.push_back(DdlFrame{next, 0});
      }
    }
  }
  return Backstop::kQuiet;
}

void PriorityCeiling::update_inheritance() {
  // "If transaction T blocks higher priority transactions, T inherits the
  // highest priority of the transactions blocked by T." Computed to a
  // fixpoint because inherited priorities feed back through chains. The
  // accumulator lives in each context's scratch_priority; locks and
  // ceilings are constant during the fixpoint, so each waiter's blocking
  // lock is hoisted out of it.
  for (const auto& [id, txn] : active_) {
    (void)id;
    txn->scratch_priority = Priority::lowest();
  }
  blocking_scratch_.clear();
  for (const Waiter* waiter : waiters_) {
    blocking_scratch_.push_back(strongest_blocking_lock(*waiter->txn));
  }
  auto effective = [](const CcTxn* txn) {
    return Priority::stronger(txn->base_priority, txn->scratch_priority);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < waiters_.size(); ++i) {
      const LockState* blocking = blocking_scratch_[i];
      if (blocking == nullptr) continue;
      const Waiter* waiter = waiters_[i];
      const Priority urgency = effective(waiter->txn);
      auto inherit = [&](CcTxn* holder) {
        if (holder == waiter->txn) return;
        if (urgency.higher_than(holder->scratch_priority)) {
          holder->scratch_priority = urgency;
          changed = true;
        }
      };
      if (blocking->writer != nullptr) inherit(blocking->writer);
      for (CcTxn* reader : blocking->readers) inherit(reader);
    }
  }
  inheriting_ = 0;
  for (const auto& [id, txn] : active_) {
    (void)id;
    set_inherited(*txn, txn->scratch_priority);
    if (txn->inherited != Priority::lowest()) ++inheriting_;
  }
}

bool PriorityCeiling::grant_pass() {
  // Waiters are kept in priority order; grant the most urgent eligible one
  // and report whether anything changed. Each waiter's blocking lock is the
  // one update_inheritance() just found.
  assert(blocking_scratch_.size() == waiters_.size());
  for (std::size_t i = 0; i < waiters_.size(); ++i) {
    Waiter* waiter = waiters_[i];
    if (!passes_ceiling(*waiter->txn, blocking_scratch_[i])) continue;
    waiters_.erase(waiters_.begin() + static_cast<std::ptrdiff_t>(i));
    grant(*waiter->txn, waiter->object, waiter->mode);
    waiter->granted = true;
    end_block(*waiter->txn);
    notify_grant(*waiter->txn, waiter->object, waiter->mode);
    waiter->wakeup->release();
    return true;
  }
  return false;
}

}  // namespace rtdb::cc
