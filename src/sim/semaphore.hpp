#pragma once

#include <cassert>
#include <cstdint>
#include <optional>

#include "sim/intrusive_list.hpp"
#include "sim/kernel.hpp"
#include "sim/wait.hpp"

namespace rtdb::sim {

// Counting semaphore with FIFO waiters, direct hand-off (a release gives
// the credit straight to the longest-waiting process, so later arrivals
// cannot barge), optional timeouts, and kill-safety (a credit handed to a
// process that is killed before it resumes is released again).
//
// This is the "private semaphore" blocking primitive of the paper's
// StarLite kernel.
class Semaphore : public Waitable {
 public:
  explicit Semaphore(Kernel& kernel, std::int64_t initial = 0)
      : kernel_(kernel), count_(initial) {
    assert(initial >= 0);
  }

  class [[nodiscard]] AcquireAwaiter {
   public:
    AcquireAwaiter(Semaphore& sem, std::optional<Duration> timeout)
        : sem_(sem), timeout_(timeout) {}

    bool await_ready() {
      if (sem_.count_ > 0) {
        --sem_.count_;
        return true;
      }
      return false;
    }

    void await_suspend(std::coroutine_handle<> h) {
      sem_.kernel_.prepare_wait(node_, &sem_, h);
      node_.ctx = this;
      sem_.waiters_.push_back(node_);
      if (timeout_.has_value()) {
        timeout_event_ = sem_.kernel_.schedule_in(*timeout_, [this] {
          sem_.waiters_.remove(node_);
          sem_.kernel_.wake_now(node_, WakeStatus::kTimeout);
        });
      }
    }

    WakeStatus await_resume() const noexcept { return node_.status; }

   private:
    friend class Semaphore;
    Semaphore& sem_;
    std::optional<Duration> timeout_;
    WaitNode node_{};
    EventId timeout_event_{};
  };

  // Blocks until a credit is available. Always resumes with kOk.
  AcquireAwaiter acquire() { return AcquireAwaiter{*this, std::nullopt}; }

  // As acquire(), but gives up after `timeout`, resuming with kTimeout.
  AcquireAwaiter acquire_for(Duration timeout) {
    return AcquireAwaiter{*this, timeout};
  }

  bool try_acquire() {
    if (count_ <= 0) return false;
    --count_;
    return true;
  }

  void release(std::int64_t n = 1) {
    assert(n >= 0);
    while (n > 0 && !waiters_.empty()) {
      WaitNode* node = waiters_.pop_front();
      auto* awaiter = static_cast<AcquireAwaiter*>(node->ctx);
      if (awaiter->timeout_event_.valid()) {
        kernel_.cancel_event(awaiter->timeout_event_);
        awaiter->timeout_event_ = {};
      }
      kernel_.wake_later(*node, WakeStatus::kOk);
      --n;
    }
    count_ += n;
  }

  std::int64_t available() const { return count_; }
  std::size_t waiter_count() const { return waiters_.size(); }

  void cancel_wait(WaitNode& node) noexcept override {
    waiters_.remove(node);
    auto* awaiter = static_cast<AcquireAwaiter*>(node.ctx);
    if (awaiter->timeout_event_.valid()) {
      kernel_.cancel_event(awaiter->timeout_event_);
      awaiter->timeout_event_ = {};
    }
  }

  // The only scheduled wake is a release's hand-off: the victim never used
  // the credit, so pass it on.
  void revoke_wake(WaitNode& node) noexcept override {
    (void)node;
    release(1);
  }

 private:
  Kernel& kernel_;
  std::int64_t count_;
  IntrusiveList<WaitNode> waiters_;
};

}  // namespace rtdb::sim
