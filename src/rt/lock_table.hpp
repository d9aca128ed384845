#pragma once

// The thread backend's lock manager: the simulator's own cc:: controller,
// run on real threads. No protocol rule lives here — every grant, queue
// order, ceiling, inheritance, victim, wound/die and timestamp decision is
// made by the controller core::make_controller builds for the simulator.
// The table only adds the waiting, which is what real threads add:
//
//   * A PqSpinLock latch serializes every entry, so the controller sees
//     the same one-call-at-a-time world it sees on the simulator.
//   * A private sim::Kernel, touched only under the latch, hosts the
//     controller's processes and semaphores. Its clock moves to
//     ThreadBackend::now() at each latch entry, so blocking spans (and the
//     monitor's trace) are measured in backend time.
//   * Each attempt owns one kernel process, which runs its acquire()
//     coroutines. An acquire that suspends in the controller leaves that
//     process blocked in the kernel and parks the thread on its WaitToken;
//     the call that grants it (a release, an abort) wakes the thread after
//     leaving the latch. A parked acquire is bounded by the transaction's
//     deadline: on timeout the thread kills its own process, whose guards
//     withdraw the wait, and acquire returns kDeadlineMiss.
//   * The abort hook does what the simulator's transaction manager does —
//     kill the victim's process, then release_all and on_end on its
//     behalf — and then flags the victim and wakes it if it is parked. The
//     victim's thread sees the flag at its next acquire, its next
//     operation boundary (checkpoint), or at release_all, which decides
//     under the latch: an attempt whose locks were released on its behalf
//     never commits.
//
// With Options::audit the controller reports to a check::ConformanceMonitor
// carrying the audits the simulator attaches (core::attach_audit).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/controller.hpp"
#include "cc/two_phase.hpp"
#include "check/monitor.hpp"
#include "core/config.hpp"
#include "rt/pqlock.hpp"
#include "rt/thread_backend.hpp"
#include "sim/kernel.hpp"
#include "sim/semaphore.hpp"

namespace rtdb::rt {

// One transaction attempt: the controller's view (the cc::CcTxn base —
// identity, priority, declared set, blocking statistics) plus the table's
// per-attempt state. on_begin starts a fresh attempt on the same object.
struct RtTxn : cc::CcTxn {
  RtTxn() { deadline = sim::TimePoint::max(); }

  // Set once another transaction's abort ended this attempt on its behalf
  // (its locks are released). The reason is written before the
  // release-store, so a reader that sees the flag may read it.
  std::atomic<bool> aborted{false};
  cc::AbortReason abort_reason = cc::AbortReason::kSystem;

  // ---- under the table latch ----
  sim::ProcessId process{};
  sim::Semaphore* inbox = nullptr;  // the process's request signal
  db::ObjectId object = 0;          // the posted request...
  cc::LockMode mode = cc::LockMode::kRead;
  bool done = false;                // ...and its outcome
  std::optional<cc::AbortReason> result;
  bool parked = false;
  WaitToken token;
};

struct RtLockStats {
  std::uint64_t grants = 0;
  std::uint64_t blocks = 0;  // requests that suspended in the controller
  std::uint64_t protocol_aborts = 0;
  std::uint64_t deadlocks = 0;  // 2PL-family WFG cycles resolved
  std::uint64_t pcp_dynamic_deadlocks = 0;
  std::uint64_t wounds = 0;
  std::uint64_t ceiling_denials = 0;
  // From the conformance monitor; zero without Options::audit.
  std::uint64_t audit_violations = 0;
  sim::Duration max_block_span{};
  std::uint64_t bound_violations = 0;
};

class RtLockTable {
 public:
  struct Options {
    core::Protocol protocol = core::Protocol::kTwoPhase;
    std::uint32_t object_count = 0;  // granule count
    cc::TwoPhaseLocking::VictimPolicy victim_policy =
        cc::TwoPhaseLocking::VictimPolicy::kLowestPriority;
    bool pcp_deadlock_backstop = true;
    // Attach the ConformanceMonitor.
    bool audit = false;
    // The monitor's blocking-bound gate (zero = measure only). Includes
    // the analyzer's thread-backend clock allowance; see
    // analysis/bounds.hpp.
    sim::Duration bound_gate{};
  };

  RtLockTable(Options options, ThreadBackend& backend);

  RtLockTable(const RtLockTable&) = delete;
  RtLockTable& operator=(const RtLockTable&) = delete;

  void on_begin(RtTxn& txn);
  // Blocks (bounded by txn.deadline) until granted. Returns nullopt on a
  // grant, or why the attempt must abort: the controller's verdict on
  // this request, an abort by another transaction, or kDeadlineMiss.
  std::optional<cc::AbortReason> acquire(RtTxn& txn, db::ObjectId object,
                                         cc::LockMode mode);
  // Releases everything the attempt holds and returns nullopt — the
  // commit point — or returns the reason when the attempt had already
  // been ended on its behalf.
  std::optional<cc::AbortReason> release_all(RtTxn& txn);
  void on_end(RtTxn& txn);

  // The abort flag, for the checks between operations (no latch).
  static std::optional<cc::AbortReason> checkpoint(const RtTxn& txn) {
    if (!txn.aborted.load(std::memory_order_acquire)) return std::nullopt;
    return txn.abort_reason;
  }

  RtLockStats stats() const;
  // Post-run check: the controller is quiescent, and no attempt or
  // process is left.
  bool quiescent(std::string* why = nullptr) const;
  // The monitor's first report (empty when it never fired).
  std::string first_audit_failure() const;

 private:
  // Takes the latch and moves the kernel clock to the backend's.
  void enter(PqSpinLock::Node& node, sim::Priority priority);
  // Drains the kernel, releases the latch, and delivers the wakes the
  // section queued (outside the spinlock, so a woken thread never spins
  // on a latch its waker still holds).
  void leave();
  // The attempt's process: serves each posted request with the
  // controller's acquire().
  sim::Task<void> serve(RtTxn& txn);
  // The controller's abort hook.
  void abort_attempt(db::TxnId victim, cc::AbortReason reason);

  ThreadBackend& backend_;
  // Mutable so the const observers (stats, quiescent) can take it.
  mutable PqSpinLock latch_;
  // Everything below is guarded by latch_.
  sim::Kernel kernel_;
  std::unique_ptr<cc::ConcurrencyController> cc_;
  std::unique_ptr<check::ConformanceMonitor> monitor_;
  std::unordered_map<db::TxnId, RtTxn*> active_;
  std::vector<WaitToken*> pending_wakes_;
};

}  // namespace rtdb::rt
