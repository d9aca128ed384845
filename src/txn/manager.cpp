#include "txn/manager.hpp"

#include <algorithm>
#include <cassert>

namespace rtdb::txn {

TransactionManager::TransactionManager(sim::Kernel& kernel,
                                       cc::ConcurrencyController& cc,
                                       TxnExecutor& executor,
                                       stats::PerformanceMonitor& monitor,
                                       Options options)
    : kernel_(kernel),
      cc_(cc),
      executor_(executor),
      monitor_(monitor),
      options_(options) {
  install_hooks();
}

TransactionManager::~TransactionManager() {
  // Live transactions reference this manager from their coroutine frames;
  // tear them down first.
  abort_all();
}

void TransactionManager::install_hooks() {
  cc_.set_hooks(cc::ControllerHooks{
      [this](db::TxnId victim, cc::AbortReason reason) {
        abort_attempt(victim, reason);
      },
      [this](const cc::CcTxn& ctx) {
        if (cpu_ == nullptr) return;
        auto it = live_.find(ctx.id);
        if (it == live_.end()) return;
        cpu_->set_priority(it->second->attempt.cpu_job,
                           ctx.effective_priority());
      }});
}

void TransactionManager::submit(TransactionSpec spec) {
  assert(spec.id.valid());
  assert(!live_.contains(spec.id));
  assert(spec.deadline > kernel_.now());

  stats::TxnRecord record;
  record.id = spec.id;
  record.site = spec.home_site;
  record.read_only = spec.read_only;
  record.size = spec.size();
  record.arrival = spec.arrival;
  record.deadline = spec.deadline;
  monitor_.on_arrival(record);

  const AdmissionConfig& admission = options_.admission;
  bool queue_full = false;
  if (admission.enabled) {
    // Shed work that is already doomed (slack below the estimated
    // response for its class) or that would overflow the bounded
    // admission queue — while it is still cheap: no attempt, no watchdog.
    const sim::Duration slack = spec.deadline - kernel_.now();
    const sim::Duration needed =
        estimated_response(spec).scaled(admission.safety_factor);
    queue_full = admission.max_running > 0 &&
                 running_count() >= admission.max_running &&
                 admission_queue_.size() >= admission.queue_limit;
    if (slack < needed || queue_full) {
      ++shed_;
      monitor_.on_shed(spec.id);
      return;
    }
  }
  ++admitted_;

  auto live = std::make_unique<Live>();
  live->spec = std::move(spec);
  Live& ref = *live;
  live_.emplace(ref.spec.id, std::move(live));

  ref.watchdog = kernel_.schedule_at(
      ref.spec.deadline, [this, id = ref.spec.id] { deadline_expired(id); });
  if (down_) {
    // Site is crashed: queue the transaction; restore() starts it (the
    // watchdog is armed, so it can also miss its deadline while queued).
    ref.phase = Phase::kDown;
    return;
  }
  if (admission.enabled && admission.max_running > 0 &&
      running_count() > admission.max_running) {
    // running_count() already includes this transaction; over the cap it
    // waits in FIFO order for a slot (the watchdog stays armed, so a
    // queue wait past the deadline is an honest recorded miss).
    ref.phase = Phase::kQueued;
    admission_queue_.push_back(ref.spec.id);
    return;
  }
  start_attempt(ref);
}

std::uint32_t TransactionManager::class_key(const TransactionSpec& spec) {
  return (spec.read_only ? 0x8000'0000u : 0u) |
         static_cast<std::uint32_t>(spec.size());
}

sim::Duration TransactionManager::estimated_response(
    const TransactionSpec& spec) const {
  if (const auto it = estimates_.find(class_key(spec));
      it != estimates_.end()) {
    return it->second;
  }
  return options_.admission.initial_estimate_per_object *
         static_cast<std::int64_t>(spec.size());
}

void TransactionManager::note_commit_response(const TransactionSpec& spec,
                                              sim::Duration response) {
  if (!options_.admission.enabled) return;
  const auto [it, inserted] = estimates_.try_emplace(class_key(spec), response);
  if (!inserted) {
    // ema += alpha * (sample - ema); Duration::scaled rounds
    // deterministically, so the estimate stream replays bit-identically.
    it->second =
        it->second + (response - it->second).scaled(options_.admission.ema_alpha);
  }
}

void TransactionManager::pump_admission_queue() {
  if (down_) return;
  const AdmissionConfig& admission = options_.admission;
  while (!admission_queue_.empty() &&
         (admission.max_running == 0 ||
          running_count() < admission.max_running)) {
    const db::TxnId id = admission_queue_.front();
    admission_queue_.pop_front();
    auto it = live_.find(id);
    assert(it != live_.end() && it->second->phase == Phase::kQueued);
    start_attempt(*it->second);
  }
}

void TransactionManager::start_attempt(Live& live) {
  live.phase = Phase::kRunning;
  live.restart_event = {};
  // Fresh cc view per attempt; identity and priority are stable.
  live.attempt.reset();
  live.attempt.ctx.id = live.spec.id;
  live.attempt.ctx.attempt = live.attempts + 1;  // 1-based
  live.attempt.ctx.base_priority = live.spec.priority;
  live.attempt.ctx.deadline = live.spec.deadline;
  live.attempt.ctx.access = live.spec.access;
  live.pid = kernel_.spawn("txn-" + std::to_string(live.spec.id.value),
                           attempt_body(live));
  monitor_.on_start(live.spec.id, kernel_.now());
}

sim::Task<void> TransactionManager::attempt_body(Live& live) {
  const std::optional<cc::AbortReason> aborted =
      co_await executor_.run(live.attempt, live.spec);
  // Kill paths (deadline, hook abort) destroy this frame at the await
  // above; their cleanup runs in deadline_expired / abort_attempt instead.
  collect_attempt_stats(live);
  executor_.release(live.attempt, live.spec, /*committed=*/!aborted);
  if (!aborted) {
    finish(live, true);
  } else {
    monitor_.on_restart(live.spec.id);
    ++restarts_;
    schedule_restart(live, *aborted);
  }
}

void TransactionManager::abort_attempt(db::TxnId victim,
                                       cc::AbortReason reason) {
  auto it = live_.find(victim);
  assert(it != live_.end() && "abort hook for unknown transaction");
  Live& live = *it->second;
  assert(live.phase == Phase::kRunning);
  kernel_.kill(live.pid);
  collect_attempt_stats(live);
  executor_.release(live.attempt, live.spec, /*committed=*/false);
  monitor_.on_restart(live.spec.id);
  ++restarts_;
  schedule_restart(live, reason);
}

void TransactionManager::schedule_restart(Live& live, cc::AbortReason reason) {
  live.phase = Phase::kAwaitingRestart;
  live.restart_event = {};
  ++live.attempts;
  // Age-based dies (wait-die) re-collide with the same older holder if
  // retried immediately — a restart livelock; back off exponentially with
  // the attempt count. Other abort reasons (deadlock victim, wound, TSO)
  // change the state that caused them, so the flat backoff suffices.
  sim::Duration backoff = kRestartBackoff;
  if (reason == cc::AbortReason::kAgeBased) {
    const std::uint32_t shift = std::min<std::uint32_t>(live.attempts, 6);
    backoff = backoff * static_cast<std::int64_t>(1u << shift);
  }
  const sim::TimePoint at = kernel_.now() + backoff;
  if (at >= live.spec.deadline) {
    // The watchdog will fire first and record the miss; nothing to do.
    return;
  }
  live.restart_event = kernel_.schedule_at(at, [this, id = live.spec.id] {
    auto it = live_.find(id);
    if (it == live_.end()) return;
    start_attempt(*it->second);
  });
}

void TransactionManager::deadline_expired(db::TxnId id) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // committed at this very instant
  Live& live = *it->second;
  ++deadline_kills_;
  const bool held_slot = live.phase != Phase::kQueued;
  if (live.phase == Phase::kRunning) {
    kernel_.kill(live.pid);
    collect_attempt_stats(live);
    executor_.release(live.attempt, live.spec, /*committed=*/false);
  } else if (live.phase == Phase::kQueued) {
    // Admitted but never dispatched: the queue wait ate the deadline.
    std::erase(admission_queue_, id);
  } else if (live.restart_event.valid()) {
    kernel_.cancel_event(live.restart_event);
  }
  monitor_.on_deadline_miss(id, kernel_.now());
  live_.erase(it);
  if (held_slot) pump_admission_queue();
}

void TransactionManager::finish(Live& live, bool committed) {
  assert(committed);
  (void)committed;
  kernel_.cancel_event(live.watchdog);
  monitor_.on_commit(live.spec.id, kernel_.now());
  note_commit_response(live.spec, kernel_.now() - live.spec.arrival);
  live_.erase(live.spec.id);
  pump_admission_queue();
}

void TransactionManager::collect_attempt_stats(Live& live) {
  monitor_.on_attempt_stats(live.spec.id, live.attempt.ctx.blocked_total,
                            live.attempt.ctx.ceiling_blocks);
}

void TransactionManager::crash() {
  assert(!down_);
  down_ = true;
  // Map order is unspecified; process in TxnId order for deterministic
  // replay (kills release locks, which reorders grant queues).
  std::vector<db::TxnId> ids;
  ids.reserve(live_.size());
  for (const auto& [id, live] : live_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(),
            [](db::TxnId a, db::TxnId b) { return a.value < b.value; });
  for (const db::TxnId id : ids) {
    Live& live = *live_.at(id);
    if (live.phase == Phase::kRunning) {
      if (kernel_.alive(live.pid)) kernel_.kill(live.pid);
      collect_attempt_stats(live);
      // Release messages go through the (now down) network and vanish;
      // remote lock-manager state is cleaned up by the failure detector.
      executor_.release(live.attempt, live.spec, /*committed=*/false);
      ++crash_kills_;
    } else if (live.restart_event.valid()) {
      kernel_.cancel_event(live.restart_event);
      live.restart_event = {};
    }
    live.phase = Phase::kDown;
  }
  // Queued admissions ride out the outage as kDown like everything else;
  // restore() restarts them all from the watchdogs.
  admission_queue_.clear();
}

void TransactionManager::restore() {
  assert(down_);
  down_ = false;
  std::vector<db::TxnId> ids;
  for (const auto& [id, live] : live_) {
    if (live->phase == Phase::kDown) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end(),
            [](db::TxnId a, db::TxnId b) { return a.value < b.value; });
  for (const db::TxnId id : ids) {
    auto it = live_.find(id);
    if (it == live_.end()) continue;
    start_attempt(*it->second);
  }
}

void TransactionManager::abort_all() {
  admission_queue_.clear();
  while (!live_.empty()) {
    auto it = live_.begin();
    Live& live = *it->second;
    kernel_.cancel_event(live.watchdog);
    if (live.phase == Phase::kRunning) {
      if (kernel_.alive(live.pid)) kernel_.kill(live.pid);
      executor_.release(live.attempt, live.spec, /*committed=*/false);
    } else if (live.restart_event.valid()) {
      kernel_.cancel_event(live.restart_event);
    }
    live_.erase(it);
  }
}

}  // namespace rtdb::txn
