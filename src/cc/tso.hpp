#pragma once

#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "cc/controller.hpp"

namespace rtdb::cc {

// Basic timestamp ordering — the third concurrency-control family the
// prototyping environment's configuration menu offers ("locking, timestamp
// ordering, and priority-based").
//
// Each transaction attempt draws a fresh timestamp at on_begin (classic
// restart-with-new-timestamp TO; see on_begin for why a kept timestamp
// would livelock). Conflicts are resolved without blocking:
//   read(O):  rejected (abort + restart) if ts < write-ts(O)
//   write(O): rejected if ts < read-ts(O) or ts < write-ts(O)
//             (no Thomas write rule: the paper's model applies writes at
//             commit, so a late write cannot simply be skipped)
//
// Simplification (documented in DESIGN.md): accesses operate on committed
// state and the schedule is validated at operation-grant level; commit
// dependencies of uncommitted writes are not tracked. For the performance
// questions studied here only the conflict/restart behaviour matters.
class TimestampOrdering : public ConcurrencyController {
 public:
  explicit TimestampOrdering(sim::Kernel& kernel);

  sim::Task<std::optional<AbortReason>> acquire(CcTxn& txn, db::ObjectId object,
                                                LockMode mode) override;
  std::string_view name() const override { return "TSO"; }

  // Assigns (if absent) or retrieves the timestamp of the current attempt.
  std::uint64_t timestamp_of(db::TxnId txn);
  void forget_timestamp(db::TxnId txn);

  std::uint64_t rejections() const { return rejections_; }

 protected:
  void do_begin(CcTxn& txn) override;
  void do_release_all(CcTxn& txn) override;
  void do_end(CcTxn& txn) override;

 private:
  struct ObjectTs {
    std::uint64_t read_ts = 0;
    std::uint64_t write_ts = 0;
  };

  std::unordered_map<db::ObjectId, ObjectTs> objects_;
  std::unordered_map<db::TxnId, std::uint64_t> timestamps_;
  std::uint64_t next_ts_ = 1;
  std::uint64_t rejections_ = 0;
};

}  // namespace rtdb::cc
