#include "cc/tso.hpp"

#include <algorithm>
#include <cassert>

namespace rtdb::cc {

TimestampOrdering::TimestampOrdering(sim::Kernel& kernel)
    : ConcurrencyController(kernel) {}

void TimestampOrdering::do_begin(CcTxn& txn) {
  // Fresh timestamp per attempt: a restarted attempt re-enters through
  // on_begin after on_end dropped its old timestamp. (Keeping the old
  // timestamp would livelock a rejected reader: the object's write
  // timestamp only grows, so the same read would be rejected forever.)
  timestamp_of(txn.id);
}

std::uint64_t TimestampOrdering::timestamp_of(db::TxnId txn) {
  auto [it, inserted] = timestamps_.try_emplace(txn, next_ts_);
  if (inserted) ++next_ts_;
  return it->second;
}

void TimestampOrdering::forget_timestamp(db::TxnId txn) {
  timestamps_.erase(txn);
}

sim::Task<std::optional<AbortReason>> TimestampOrdering::acquire(
    CcTxn& txn, db::ObjectId object, LockMode mode) {
  const std::uint64_t ts = timestamp_of(txn.id);
  ObjectTs& state = objects_[object];
  if (mode == LockMode::kRead) {
    if (ts < state.write_ts) {
      ++rejections_;
      count_protocol_abort();
      notify_tso_access(txn, object, mode, ts, false);
      co_return AbortReason::kTimestampOrder;
    }
    state.read_ts = std::max(state.read_ts, ts);
  } else {
    if (ts < state.read_ts || ts < state.write_ts) {
      ++rejections_;
      count_protocol_abort();
      notify_tso_access(txn, object, mode, ts, false);
      co_return AbortReason::kTimestampOrder;
    }
    state.write_ts = ts;
  }
  count_grant();
  notify_tso_access(txn, object, mode, ts, true);
  co_return std::nullopt;
}

void TimestampOrdering::do_release_all(CcTxn& txn) {
  // Nothing to release: timestamp ordering holds no locks.
  (void)txn;
}

void TimestampOrdering::do_end(CcTxn& txn) { forget_timestamp(txn.id); }

}  // namespace rtdb::cc
