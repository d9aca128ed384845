#include "cc/two_phase.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sim/semaphore.hpp"

namespace rtdb::cc {

using sim::Priority;

TwoPhaseLocking::TwoPhaseLocking(sim::Kernel& kernel, Options options)
    : ConcurrencyController(kernel),
      options_(options),
      table_(options.queue_policy) {
  table_.set_grant_observer([this](LockTable::Request& request) {
    // The waiter stops waiting the instant it is granted; it must leave
    // the wait-for graph before any further deadlock check can see it.
    waiting_.erase(request.txn->id);
    end_block(*request.txn);
    notify_grant(*request.txn, request.object, request.mode);
  });
}

void TwoPhaseLocking::do_begin(CcTxn& txn) {
  assert(!active_.contains(txn.id));
  active_.emplace(txn.id, &txn);
}

sim::Task<std::optional<AbortReason>> TwoPhaseLocking::acquire(
    CcTxn& txn, db::ObjectId object, LockMode mode) {
  assert(active_.contains(txn.id) && "acquire before on_begin");
  if (table_.try_grant(txn, object, mode)) {
    count_grant();
    notify_grant(txn, object, mode);
    co_return std::nullopt;
  }

  sim::Semaphore wakeup{kernel_, 0};
  LockTable::Request request{&txn, object, mode, &wakeup, false, 0};
  table_.enqueue(request);
  waiting_.emplace(txn.id, &request);
  begin_block(txn);
  if (observer() != nullptr) {
    notify_block(txn, object, mode, table_.blockers_of(request));
  }

  // Unblock bookkeeping on *every* exit: normal grant (already dequeued,
  // granted=true), kill while blocked (the frame is destroyed), or
  // self-abort as deadlock victim (the early return). The cycle search
  // keeps no state between calls, so there is nothing of it to undo.
  struct Cleanup {
    TwoPhaseLocking* self;
    LockTable::Request* request;
    ~Cleanup() {
      CcTxn& txn = *request->txn;
      if (!request->granted) {
        self->table_.cancel(*request);
        self->waiting_.erase(txn.id);
        self->end_block(txn);
      }
      self->update_inheritance();
    }
  } cleanup{this, &request};

  if (resolve_deadlocks(txn, request)) {
    co_return AbortReason::kDeadlockVictim;
  }
  update_inheritance();
  if (!request.granted) {
    co_await wakeup.acquire();
  }
  assert(request.granted);
  count_grant();
  co_return std::nullopt;
}

void TwoPhaseLocking::do_release_all(CcTxn& txn) {
  table_.release_all(txn);
  update_inheritance();
}

void TwoPhaseLocking::do_end(CcTxn& txn) {
  assert(!waiting_.contains(txn.id) && "on_end while still waiting");
  active_.erase(txn.id);
  set_inherited(txn, Priority::lowest());
  update_inheritance();
}

std::string_view TwoPhaseLocking::name() const {
  if (options_.priority_inheritance) return "2PL-PIP";
  return options_.queue_policy == LockTable::QueuePolicy::kPriority
             ? "2PL-P"
             : "2PL";
}

bool TwoPhaseLocking::quiescent(std::string* why) const {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = "2PL: " + reason;
    return false;
  };
  if (!active_.empty()) {
    return fail(std::to_string(active_.size()) + " transactions still active");
  }
  if (table_.waiting_requests() != 0) {
    return fail(std::to_string(table_.waiting_requests()) +
                " requests still waiting");
  }
  if (table_.locked_objects() != 0) {
    return fail(std::to_string(table_.locked_objects()) +
                " objects still locked");
  }
  return true;
}

bool TwoPhaseLocking::resolve_deadlocks(CcTxn& requester,
                                        LockTable::Request& request) {
  // A waiting transaction waits for the blockers of its queued request;
  // every other transaction waits for nothing.
  auto waits_for = [this](db::TxnId waiter, std::vector<db::TxnId>& out) {
    auto it = waiting_.find(waiter);
    if (it == waiting_.end()) return;
    auto emit = [&out](const CcTxn& blocker) { out.push_back(blocker.id); };
    table_.for_each_blocker(*it->second, emit);
  };
  for (;;) {
    if (request.granted) return false;  // a victim's release granted us
    const auto cycle = cycle_finder_.find_cycle_from(requester.id, waits_for);
    if (cycle.empty()) return false;
    ++deadlocks_;
    count_protocol_abort();
    const db::TxnId victim = pick_victim(cycle, requester.id);
    notify_abort(victim, AbortReason::kDeadlockVictim);
    if (victim == requester.id) {
      // Cleanup (dequeue, block accounting) runs in acquire()'s RAII
      // guard as it returns the abort.
      return true;
    }
    assert(hooks_.abort_txn != nullptr);
    hooks_.abort_txn(victim, AbortReason::kDeadlockVictim);
    // The abort released the victim's locks synchronously; loop to check
    // for further cycles (or discover we were granted).
  }
}

db::TxnId TwoPhaseLocking::pick_victim(std::span<const db::TxnId> cycle,
                                       db::TxnId requester) const {
  assert(!cycle.empty());
  switch (options_.victim_policy) {
    case VictimPolicy::kRequester:
      if (std::find(cycle.begin(), cycle.end(), requester) != cycle.end()) {
        return requester;
      }
      [[fallthrough]];  // requester not on the cycle: fall back
    case VictimPolicy::kLowestPriority: {
      db::TxnId worst = cycle.front();
      for (db::TxnId id : cycle) {
        const CcTxn* a = active_.at(id);
        const CcTxn* b = active_.at(worst);
        if (b->effective_priority().higher_than(a->effective_priority())) {
          worst = id;
        }
      }
      return worst;
    }
    case VictimPolicy::kYoungest: {
      db::TxnId youngest = cycle.front();
      for (db::TxnId id : cycle) {
        if (youngest < id) youngest = id;
      }
      return youngest;
    }
  }
  return cycle.front();
}

void TwoPhaseLocking::update_inheritance() {
  if (!options_.priority_inheritance) return;
  // Fixpoint: a blocker inherits the strongest effective priority among the
  // waiters it blocks; effective priorities feed back through chains
  // (T1 waits on T2 which waits on T3: T3 inherits T1's priority). The
  // accumulator lives in each context's scratch_priority so the pass
  // allocates nothing.
  for (const auto& [id, txn] : active_) {
    (void)id;
    txn->scratch_priority = Priority::lowest();
  }
  auto effective = [](const CcTxn* txn) {
    return Priority::stronger(txn->base_priority, txn->scratch_priority);
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [id, request] : waiting_) {
      (void)id;
      const Priority urgency = effective(request->txn);
      table_.for_each_blocker(*request, [&](CcTxn& blocker) {
        if (urgency.higher_than(blocker.scratch_priority)) {
          blocker.scratch_priority = urgency;
          changed = true;
        }
      });
    }
  }
  // Applied in active-map order: deterministic and independent of where the
  // contexts happen to live in memory. The order is observable (the
  // priority hook drives CPU rescheduling, which allocates event
  // sequence numbers), so it must not depend on the allocator.
  for (const auto& [id, txn] : active_) {
    (void)id;
    set_inherited(*txn, txn->scratch_priority);
  }
}

}  // namespace rtdb::cc
