#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>

#include "cc/controller.hpp"
#include "sched/cpu.hpp"
#include "sim/kernel.hpp"
#include "stats/monitor.hpp"
#include "txn/admission.hpp"
#include "txn/transaction.hpp"

namespace rtdb::txn {

// Delay before a protocol-aborted attempt (deadlock victim, wound,
// timestamp rejection) is restarted; age-based dies back off exponentially
// from it. The thread runner (src/rt) restarts with the same delays.
inline constexpr sim::Duration kRestartBackoff = sim::Duration::units(1);

// The Transaction Manager of one site: spawns one kernel process per
// transaction attempt ("a separate process for each transaction is created
// for concurrent execution"), arms the hard-deadline watchdog, restarts
// protocol-aborted attempts, and reports every lifecycle event to the
// Performance Monitor.
//
// Hard-deadline semantics (§3.2): "transactions that miss the deadline are
// aborted, and disappear from the system" — the watchdog kills the attempt
// at the deadline, releases everything it held, and records the miss.
class TransactionManager {
 public:
  struct Options {
    // Deadline-aware admission control (see txn/admission.hpp); disabled
    // by default, in which case every submitted transaction is admitted
    // immediately and the manager behaves exactly as before.
    AdmissionConfig admission;
  };

  TransactionManager(sim::Kernel& kernel, cc::ConcurrencyController& cc,
                     TxnExecutor& executor, stats::PerformanceMonitor& monitor)
      : TransactionManager(kernel, cc, executor, monitor, Options{}) {}
  TransactionManager(sim::Kernel& kernel, cc::ConcurrencyController& cc,
                     TxnExecutor& executor, stats::PerformanceMonitor& monitor,
                     Options options);
  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // Propagate inherited priorities to this CPU (optional but recommended:
  // without it, inheritance affects lock decisions but not execution).
  void connect_cpu(sched::PreemptiveCpu& cpu) { cpu_ = &cpu; }

  // Accepts a transaction: records its arrival and, if admission control
  // admits it, starts the first attempt (or parks it in the admission
  // queue) and arms the watchdog. A shed transaction is recorded as such
  // and disappears immediately — no attempt, no watchdog, no miss.
  // The spec's arrival/deadline must be >= now.
  void submit(TransactionSpec spec);

  std::size_t live_count() const { return live_.size(); }
  std::uint64_t restarts() const { return restarts_; }
  std::uint64_t deadline_kills() const { return deadline_kills_; }
  std::uint64_t crash_kills() const { return crash_kills_; }
  // Admission control outcomes (admitted + shed == submitted).
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t shed() const { return shed_; }
  std::size_t admission_queue_depth() const {
    return admission_queue_.size();
  }
  // The current per-class response estimate admission decisions use.
  sim::Duration estimated_response(const TransactionSpec& spec) const;

  // Kills every live transaction (teardown between experiment runs).
  void abort_all();

  // Site failure (fail-stop): kills every running attempt — their volatile
  // state is lost — and parks all live transactions in Phase::kDown.
  // Watchdogs stay armed: a deadline passing while the site is down is
  // still a recorded miss. Transactions submitted while down are queued.
  void crash();
  // Site restart: resumes from the deadline watchdogs — every transaction
  // whose deadline has not yet passed starts a fresh attempt.
  void restore();
  bool down() const { return down_; }

 private:
  enum class Phase : std::uint8_t {
    kRunning,
    kAwaitingRestart,
    kDown,
    kQueued,  // admitted, waiting for a max_running slot
  };

  struct Live {
    TransactionSpec spec;
    AttemptContext attempt;
    Phase phase = Phase::kRunning;
    std::uint32_t attempts = 0;
    sim::ProcessId pid{};
    sim::EventId watchdog{};
    sim::EventId restart_event{};
  };

  void install_hooks();
  // Admitted transactions not parked in the admission queue.
  std::size_t running_count() const {
    return live_.size() - admission_queue_.size();
  }
  static std::uint32_t class_key(const TransactionSpec& spec);
  void note_commit_response(const TransactionSpec& spec,
                            sim::Duration response);
  // Starts queued transactions while max_running slots are free.
  void pump_admission_queue();
  void start_attempt(Live& live);
  sim::Task<void> attempt_body(Live& live);
  // Controller hook: abort (and restart) another transaction's attempt.
  void abort_attempt(db::TxnId victim, cc::AbortReason reason);
  void schedule_restart(Live& live, cc::AbortReason reason);
  void deadline_expired(db::TxnId id);
  void finish(Live& live, bool committed);
  void collect_attempt_stats(Live& live);

  sim::Kernel& kernel_;
  cc::ConcurrencyController& cc_;
  TxnExecutor& executor_;
  stats::PerformanceMonitor& monitor_;
  Options options_;
  sched::PreemptiveCpu* cpu_ = nullptr;
  std::unordered_map<db::TxnId, std::unique_ptr<Live>> live_;
  // Ids of Live entries in Phase::kQueued, FIFO (exact correspondence is
  // an invariant; both sides are updated together).
  std::deque<db::TxnId> admission_queue_;
  // Per-class (read-only flag x size) EMA of committed response times;
  // ordered map for deterministic replay.
  std::map<std::uint32_t, sim::Duration> estimates_;
  bool down_ = false;
  std::uint64_t restarts_ = 0;
  std::uint64_t deadline_kills_ = 0;
  std::uint64_t crash_kills_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t shed_ = 0;
};

}  // namespace rtdb::txn
