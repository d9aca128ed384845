#include "cc/hp2pl.hpp"

#include <algorithm>
#include <cassert>

#include "sim/semaphore.hpp"

namespace rtdb::cc {

HighPriority2PL::HighPriority2PL(sim::Kernel& kernel)
    : ConcurrencyController(kernel),
      table_(LockTable::QueuePolicy::kPriority) {
  table_.set_grant_observer([this](LockTable::Request& request) {
    end_block(*request.txn);
    notify_grant(*request.txn, request.object, request.mode);
  });
}

sim::Task<std::optional<AbortReason>> HighPriority2PL::acquire(
    CcTxn& txn, db::ObjectId object, LockMode mode) {
  if (table_.try_grant(txn, object, mode)) {
    count_grant();
    notify_grant(txn, object, mode);
    co_return std::nullopt;
  }

  // Queue first (priority order), then decide: wound every conflicting
  // holder iff all of them are less urgent than us and nothing queued
  // ahead conflicts. Queueing first means the wounds' releases promote us
  // directly.
  sim::Semaphore wakeup{kernel_, 0};
  LockTable::Request request{&txn, object, mode, &wakeup, false, 0};
  table_.enqueue(request);
  begin_block(txn);

  struct Cleanup {
    HighPriority2PL* self;
    LockTable::Request* request;
    ~Cleanup() {
      if (!request->granted) {
        self->table_.cancel(*request);
        self->end_block(*request->txn);
      }
    }
  } cleanup{this, &request};

  std::vector<CcTxn*> blockers = table_.blockers_of(request);
  assert(!blockers.empty());
  notify_block(txn, object, mode, blockers);
  const bool all_lower = std::all_of(
      blockers.begin(), blockers.end(), [&](const CcTxn* blocker) {
        return txn.effective_priority().higher_than(
            blocker->effective_priority());
      });
  if (all_lower) {
    // The blockers are exactly the conflicting holders here: a queued-ahead
    // conflicting request would have higher priority than ours under the
    // priority queue policy, contradicting all_lower.
    for (CcTxn* victim : blockers) {
      if (request.granted) break;  // earlier wounds already freed the lock
      ++wounds_;
      count_protocol_abort();
      notify_abort(victim->id, AbortReason::kWounded);
      assert(hooks_.abort_txn != nullptr);
      hooks_.abort_txn(victim->id, AbortReason::kWounded);
    }
  }

  co_await wakeup.acquire();
  assert(request.granted);
  count_grant();
  co_return std::nullopt;
}

void HighPriority2PL::do_release_all(CcTxn& txn) { table_.release_all(txn); }

}  // namespace rtdb::cc
