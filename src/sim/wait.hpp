#pragma once

#include <coroutine>
#include <cstdint>
#include <stdexcept>

#include "sim/event_queue.hpp"

namespace rtdb::sim {

class Process;

// Outcome a blocked process observes when it is woken. A killed process
// is never woken: Kernel::kill destroys its frames instead.
enum class WakeStatus : std::uint8_t {
  kOk,       // the awaited condition was satisfied
  kTimeout,  // a timed wait expired
};

// Thrown by Kernel::kill when a process kills itself, the one kill that
// runs inside its victim; the process ends once it escapes the body. A
// kill from anywhere else throws nothing: it destroys the blocked victim's
// coroutine frames in place (see Kernel::kill).
class ProcessCancelled : public std::runtime_error {
 public:
  ProcessCancelled() : std::runtime_error("process cancelled") {}
};

class Waitable;

// One blocked wait. Lives inside an awaiter object in the blocked
// coroutine's frame; linked into the owning primitive's wait queue and
// registered with the process so kill() can find and cancel it.
struct WaitNode {
  Process* proc = nullptr;
  std::coroutine_handle<> handle{};
  // Primitive the process is blocked on, for the whole wait.
  Waitable* owner = nullptr;
  WakeStatus status = WakeStatus::kOk;
  // Set while a deferred wake (Kernel::wake_later) is scheduled: the owner
  // has dequeued the node and may have handed it a credit or an item.
  // kill() then revokes the wake instead of cancelling a queued wait.
  EventId pending_wake{};
  // Scratch fields for the owner: which internal queue the node is in, and
  // a back-pointer to the awaiter holding per-wait extras (timeout timer,
  // delivered item).
  int tag = 0;
  void* ctx = nullptr;
  WaitNode* prev_ = nullptr;
  WaitNode* next_ = nullptr;
};

// Interface every blocking primitive implements so the kernel can end a
// wait when the blocked process is killed. Neither call may resume the
// process: the kernel destroys its frames right after.
class Waitable {
 public:
  // The wait is still in progress: unlink the node from the primitive's
  // queues and undo whatever is pending for it (a timer, a job).
  virtual void cancel_wait(WaitNode& node) noexcept = 0;
  // The node was dequeued and its wake scheduled, and the kernel has just
  // cancelled that wake: take back whatever the wake handed over.
  virtual void revoke_wake(WaitNode& node) noexcept { (void)node; }

 protected:
  ~Waitable() = default;
};

}  // namespace rtdb::sim
