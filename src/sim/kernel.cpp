#include "sim/kernel.hpp"

#include <cassert>
#include <utility>

namespace rtdb::sim {

EventId Kernel::schedule_at(TimePoint when, EventCallback&& cb) {
  assert(when >= now_);
  return events_.schedule(when, std::move(cb));
}

EventId Kernel::schedule_in(Duration delay, EventCallback&& cb) {
  assert(!delay.is_negative());
  return schedule_at(now_ + delay, std::move(cb));
}

ProcessId Kernel::spawn(std::string name, Task<void> body) {
  const ProcessId id{static_cast<std::uint32_t>(processes_.size())};
  processes_.push_back(
      std::make_unique<Process>(id, std::move(name), std::move(body)));
  Process& p = *processes_.back();
  ++live_processes_;
  // Start via an event so spawn() is safe from any context (including from
  // inside another process) and processes start in deterministic order.
  p.start_event_ = schedule_at(now_, [this, &p] { start_process(p); });
  return id;
}

void Kernel::kill(ProcessId id) {
  Process& p = get(id);
  switch (p.state_) {
    case ProcessState::kCreated:
      cancel_event(p.start_event_);
      p.start_event_ = {};
      finalize(p);
      break;
    case ProcessState::kRunning:
      // Self-kill: unwind right here.
      assert(current_ == &p);
      throw ProcessCancelled{};
    case ProcessState::kWaiting: {
      WaitNode& node = *p.waiting_on_;
      if (node.pending_wake.valid()) {
        // Already woken: revoke the wake, and the owner takes back what it
        // handed over with it.
        cancel_event(node.pending_wake);
        node.pending_wake = {};
        node.owner->revoke_wake(node);
      } else {
        node.owner->cancel_wait(node);
      }
      // Destroy the frame chain from the top: each frame destroys the task
      // it awaits first, so destructors run innermost first, with the
      // victim current and running as if it were executing them.
      p.waiting_on_ = nullptr;
      p.state_ = ProcessState::kRunning;
      Process* prev = std::exchange(current_, &p);
      p.body_ = Task<void>{};
      current_ = prev;
      finalize(p);
      break;
    }
    case ProcessState::kDone:
      break;
  }
}

bool Kernel::alive(ProcessId id) const { return !get(id).done(); }

const std::string& Kernel::process_name(ProcessId id) const {
  return get(id).name();
}

void Kernel::run() {
  while (step()) {
  }
}

void Kernel::run_until(TimePoint deadline) {
  while (true) {
    auto t = events_.next_time();
    if (!t.has_value() || *t > deadline) break;
    step();
  }
  if (now_ < deadline) now_ = deadline;
}

bool Kernel::step() {
  auto ev = events_.pop();
  if (!ev.has_value()) return false;
  assert(ev->time >= now_);
  now_ = ev->time;
  ++events_executed_;
  ev->callback();
  return true;
}

void Kernel::prepare_wait(WaitNode& node, Waitable* owner,
                          std::coroutine_handle<> h) {
  assert(current_ != nullptr && "blocking awaitables require a process context");
  assert(current_->state_ == ProcessState::kRunning);
  node.proc = current_;
  node.handle = h;
  node.owner = owner;
  node.status = WakeStatus::kOk;
  node.pending_wake = {};
  current_->waiting_on_ = &node;
  current_->state_ = ProcessState::kWaiting;
}

void Kernel::wake_now(WaitNode& node, WakeStatus status) {
  node.status = status;
  resume_process(*node.proc, node);
}

void Kernel::wake_later(WaitNode& node, WakeStatus status) {
  assert(!node.pending_wake.valid());
  node.status = status;
  node.pending_wake = schedule_at(now_, [this, &node] {
    node.pending_wake = {};
    resume_process(*node.proc, node);
  });
}

void Kernel::start_process(Process& p) {
  p.start_event_ = {};
  assert(p.state_ == ProcessState::kCreated);
  Process* prev = current_;
  current_ = &p;
  p.state_ = ProcessState::kRunning;
  p.body_.resume();
  current_ = prev;
  after_resume(p);
}

void Kernel::resume_process(Process& p, WaitNode& node) {
  assert(p.state_ == ProcessState::kWaiting);
  assert(p.waiting_on_ == &node);
  p.waiting_on_ = nullptr;
  p.state_ = ProcessState::kRunning;
  Process* prev = current_;
  current_ = &p;
  node.handle.resume();
  current_ = prev;
  after_resume(p);
}

void Kernel::after_resume(Process& p) {
  if (p.body_.done()) {
    finalize(p);
    return;
  }
  assert(p.state_ == ProcessState::kWaiting &&
         "a suspended process must be blocked on a kernel awaitable");
}

void Kernel::finalize(Process& p) {
  assert(p.state_ != ProcessState::kDone);
  p.state_ = ProcessState::kDone;
  --live_processes_;
  const std::exception_ptr escaped =
      p.body_.valid() ? p.body_.exception() : nullptr;
  p.body_ = Task<void>{};  // release the coroutine frame
  if (escaped) {
    try {
      std::rethrow_exception(escaped);
    } catch (const ProcessCancelled&) {
      // Self-kill: the cancellation unwound the whole body.
    }
    // Any other exception type propagates out of the rethrow above and
    // escapes Kernel::run(), surfacing the bug to the caller/test.
  }
}

void Kernel::DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  kernel_.prepare_wait(node_, this, h);
  event_ = kernel_.schedule_in(delay_, [this] {
    kernel_.wake_now(node_, WakeStatus::kOk);
  });
}

void Kernel::DelayAwaiter::cancel_wait(WaitNode& node) noexcept {
  assert(&node == &node_);
  (void)node;
  kernel_.cancel_event(event_);
  event_ = {};
}

Process& Kernel::get(ProcessId id) {
  assert(id.valid() && id.value < processes_.size());
  return *processes_[id.value];
}

const Process& Kernel::get(ProcessId id) const {
  assert(id.valid() && id.value < processes_.size());
  return *processes_[id.value];
}

}  // namespace rtdb::sim
