#pragma once

// Shared rig for exercising concurrency controllers without the full
// transaction layer: tracks CcTxn contexts, implements the abort hook by
// killing the victim's process and releasing its locks, and offers a
// standard scripted-transaction body.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "cc/controller.hpp"
#include "cc/txn_ctx.hpp"
#include "sim/kernel.hpp"

namespace rtdb::cc::testutil {

class Rig {
 public:
  Rig(sim::Kernel& kernel, ConcurrencyController& cc)
      : kernel_(kernel), cc_(cc) {
    cc_.set_hooks(ControllerHooks{
        [this](db::TxnId victim, AbortReason reason) {
          abort(victim, reason);
        },
        [this](const CcTxn& txn) {
          if (on_priority_changed) on_priority_changed(txn);
        }});
  }

  sim::Kernel& kernel() { return kernel_; }
  ConcurrencyController& cc() { return cc_; }

  struct Entry {
    CcTxn* ctx = nullptr;
    sim::ProcessId pid{};
    bool hook_aborted = false;
    AbortReason reason{};
  };

  void track(CcTxn& ctx, sim::ProcessId pid) {
    entries_[ctx.id.value] = Entry{&ctx, pid, false, AbortReason::kSystem};
  }

  // The abort hook: kill the victim's process (destroying any blocked
  // acquire, whose RAII guards withdraw the wait), then release its locks
  // and deregister it — what the transaction manager does in the full
  // system. Controllers never name the running transaction here.
  void abort(db::TxnId victim, AbortReason reason) {
    auto it = entries_.find(victim.value);
    ASSERT_NE(it, entries_.end()) << "abort hook for unknown txn";
    Entry& entry = it->second;
    ASSERT_FALSE(entry.hook_aborted);
    entry.hook_aborted = true;
    entry.reason = reason;
    kernel_.kill(entry.pid);
    cc_.release_all(*entry.ctx);
    cc_.on_end(*entry.ctx);
  }

  // Kills every tracked transaction whose process is still alive and
  // withdraws it from the controller, so a test that leaves transactions
  // blocked for good tears down while the controller their guards touch
  // still exists.
  void abort_stranded() {
    for (auto& [id, entry] : entries_) {
      (void)id;
      if (!kernel_.alive(entry.pid)) continue;
      kernel_.kill(entry.pid);
      cc_.release_all(*entry.ctx);
      cc_.on_end(*entry.ctx);
    }
  }

  bool hook_aborted(const CcTxn& ctx) const {
    auto it = entries_.find(ctx.id.value);
    return it != entries_.end() && it->second.hook_aborted;
  }

  std::function<void(const CcTxn&)> on_priority_changed;

 private:
  sim::Kernel& kernel_;
  ConcurrencyController& cc_;
  std::map<std::uint64_t, Entry> entries_;
};

struct ScriptResult {
  bool committed = false;
  bool self_aborted = false;
  AbortReason self_abort_reason{};
  double committed_at = -1;
};

// A scripted transaction: on_begin, then for each operation acquire and
// dwell `per_op`, then dwell `tail`, then release and commit. Self-aborts
// (an acquire returning a reason) are reported; a kill destroys the body
// at its suspension point (the Rig's abort hook performs the release).
inline sim::Task<void> scripted_txn(Rig& rig, CcTxn& ctx,
                                    std::vector<Operation> ops,
                                    sim::Duration per_op, sim::Duration tail,
                                    ScriptResult& result) {
  ctx.access = AccessSet::from_operations(ops);
  rig.cc().on_begin(ctx);
  std::optional<AbortReason> aborted;
  for (const Operation& op : ops) {
    aborted = co_await rig.cc().acquire(ctx, op.object, op.mode);
    if (aborted) break;
    co_await rig.kernel().delay(per_op);
  }
  if (aborted) {
    result.self_aborted = true;
    result.self_abort_reason = *aborted;
  } else {
    co_await rig.kernel().delay(tail);
    result.committed = true;
    result.committed_at = rig.kernel().now().as_units();
  }
  rig.cc().release_all(ctx);
  rig.cc().on_end(ctx);
}

// Spawns a scripted transaction after `start_delay`.
inline sim::ProcessId spawn_scripted(Rig& rig, CcTxn& ctx,
                                     std::vector<Operation> ops,
                                     sim::Duration start_delay,
                                     sim::Duration per_op, sim::Duration tail,
                                     ScriptResult& result) {
  auto body = [](Rig& rig, CcTxn& ctx, std::vector<Operation> ops,
                 sim::Duration start_delay, sim::Duration per_op,
                 sim::Duration tail, ScriptResult& result) -> sim::Task<void> {
    co_await rig.kernel().delay(start_delay);
    co_await scripted_txn(rig, ctx, std::move(ops), per_op, tail, result);
  };
  sim::ProcessId pid = rig.kernel().spawn(
      "txn-" + std::to_string(ctx.id.value),
      body(rig, ctx, std::move(ops), start_delay, per_op, tail, result));
  rig.track(ctx, pid);
  return pid;
}

inline CcTxn make_txn(std::uint64_t id, std::int64_t priority_key) {
  CcTxn ctx;
  ctx.id = db::TxnId{id};
  ctx.base_priority = sim::Priority{priority_key, static_cast<std::uint32_t>(id)};
  return ctx;
}

}  // namespace rtdb::cc::testutil
