#include "cc/wait_die.hpp"

#include <algorithm>
#include <cassert>

#include "sim/semaphore.hpp"

namespace rtdb::cc {

AgeBased2PL::AgeBased2PL(sim::Kernel& kernel, Flavour flavour)
    : ConcurrencyController(kernel),
      flavour_(flavour),
      // FIFO queues: age decides who waits at all; among waiters arrival
      // order is the classic treatment.
      table_(LockTable::QueuePolicy::kFifo) {
  table_.set_grant_observer([this](LockTable::Request& request) {
    end_block(*request.txn);
    notify_grant(*request.txn, request.object, request.mode);
  });
}

sim::Task<std::optional<AbortReason>> AgeBased2PL::acquire(
    CcTxn& txn, db::ObjectId object, LockMode mode) {
  for (;;) {
    if (table_.try_grant(txn, object, mode)) {
      count_grant();
      notify_grant(txn, object, mode);
      co_return std::nullopt;
    }
    // Probe who we would wait for.
    LockTable::Request probe{&txn, object, mode, nullptr, false, 0};
    table_.enqueue(probe);
    const std::vector<CcTxn*> blockers = table_.blockers_of(probe);
    table_.cancel(probe);
    assert(!blockers.empty());

    if (flavour_ == Flavour::kWaitDie) {
      const bool all_blockers_younger = std::all_of(
          blockers.begin(), blockers.end(),
          [&](const CcTxn* blocker) { return older(txn, *blocker); });
      if (!all_blockers_younger) {
        // Younger than some holder: die (restart with the same age).
        ++dies_;
        count_protocol_abort();
        notify_abort(txn.id, AbortReason::kAgeBased);
        co_return AbortReason::kAgeBased;
      }
      // Older than everyone in the way: wait.
    } else {
      // Wound-Wait: wound every younger blocker that holds the lock; if
      // all blockers are older, wait.
      bool wounded_any = false;
      for (CcTxn* blocker : blockers) {
        if (older(txn, *blocker)) {
          ++wounds_;
          count_protocol_abort();
          notify_abort(blocker->id, AbortReason::kWounded);
          assert(hooks_.abort_txn != nullptr);
          hooks_.abort_txn(blocker->id, AbortReason::kWounded);
          wounded_any = true;
        }
      }
      if (wounded_any) continue;  // re-probe: the lock may be free now
    }

    sim::Semaphore wakeup{kernel_, 0};
    LockTable::Request request{&txn, object, mode, &wakeup, false, 0};
    table_.enqueue(request);
    begin_block(txn);
    notify_block(txn, object, mode, blockers);
    struct Cleanup {
      AgeBased2PL* self;
      LockTable::Request* request;
      ~Cleanup() {
        if (!request->granted) {
          self->table_.cancel(*request);
          self->end_block(*request->txn);
        }
      }
    } cleanup{this, &request};
    co_await wakeup.acquire();
    assert(request.granted);
    count_grant();
    co_return std::nullopt;
  }
}

void AgeBased2PL::do_release_all(CcTxn& txn) { table_.release_all(txn); }

}  // namespace rtdb::cc
