#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/process.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace rtdb::sim {

// The discrete-event kernel: virtual clock, cancellable event queue, and
// coroutine processes with StarLite-style control (create / block / ready /
// terminate). Single-threaded; all concurrency is virtual, which makes every
// run bit-for-bit reproducible for a given seed.
class Kernel {
 public:
  Kernel() = default;
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // ---- time ----
  TimePoint now() const { return now_; }

  // By rvalue reference, so a callback moves once, into its event slot; a
  // named one is passed as an explicit copy.
  EventId schedule_at(TimePoint when, EventCallback&& cb);
  EventId schedule_in(Duration delay, EventCallback&& cb);
  bool cancel_event(EventId id) { return events_.cancel(id); }

  // ---- process control ----
  ProcessId spawn(std::string name, Task<void> body);
  // Kills a process. If blocked, its wait is cancelled (a credit or item
  // already handed to it goes back to the primitive) and its coroutine
  // frames are destroyed in place, innermost first, before kill returns:
  // RAII releases its resources, and nothing after its suspension point
  // runs. During that destruction the victim is current() and alive(). If
  // not yet started, it never runs. Killing the current process throws
  // ProcessCancelled.
  void kill(ProcessId id);
  bool alive(ProcessId id) const;
  Process* current() const { return current_; }
  std::size_t live_process_count() const { return live_processes_; }
  const std::string& process_name(ProcessId id) const;

  // ---- run control ----
  // Runs until the event queue drains.
  void run();
  // Runs all events with time <= deadline, then moves the clock to the
  // deadline (it stays put if already past it), even when the last event
  // fired earlier.
  void run_until(TimePoint deadline);
  void run_for(Duration d) { run_until(now_ + d); }
  // Executes at most one event. Returns false when the queue is empty.
  bool step();

  std::uint64_t events_executed() const { return events_executed_; }

  // ---- awaitables ----
  class DelayAwaiter : public Waitable {
   public:
    DelayAwaiter(Kernel& kernel, Duration d) : kernel_(kernel), delay_(d) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}
    void cancel_wait(WaitNode& node) noexcept override;

   private:
    Kernel& kernel_;
    Duration delay_;
    WaitNode node_{};
    EventId event_{};
  };

  // Suspends the calling process for `d` of virtual time.
  DelayAwaiter delay(Duration d) { return DelayAwaiter{*this, d}; }
  // Reschedules the calling process at the current time (lets other
  // ready work at this instant run first).
  DelayAwaiter yield() { return DelayAwaiter{*this, Duration::zero()}; }

  // ---- wait plumbing (used by blocking primitives, not end users) ----
  // Fills in the node for the current process and records it as the
  // process's active wait. Must be called from await_suspend.
  void prepare_wait(WaitNode& node, Waitable* owner,
                    std::coroutine_handle<> h);
  // Resumes the blocked process immediately (same virtual instant),
  // re-entrantly safe. Used by event callbacks.
  void wake_now(WaitNode& node, WakeStatus status);
  // Schedules the wake as an event at the current time; preferred by
  // primitives so a release never runs the waiter in the middle of the
  // releaser's statement. The primitive must have dequeued the node.
  void wake_later(WaitNode& node, WakeStatus status);

 private:
  void start_process(Process& p);
  void resume_process(Process& p, WaitNode& node);
  void after_resume(Process& p);
  void finalize(Process& p);
  Process& get(ProcessId id);
  const Process& get(ProcessId id) const;

  TimePoint now_{};
  EventQueue events_;
  std::vector<std::unique_ptr<Process>> processes_;
  Process* current_ = nullptr;
  std::size_t live_processes_ = 0;
  std::uint64_t events_executed_ = 0;
};

}  // namespace rtdb::sim
