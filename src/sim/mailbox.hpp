#pragma once

#include <cassert>
#include <deque>
#include <optional>
#include <utility>

#include "sim/intrusive_list.hpp"
#include "sim/kernel.hpp"
#include "sim/wait.hpp"

namespace rtdb::sim {

// Typed message port, the inter-process communication primitive of the
// prototyping environment. Supports:
//   * asynchronous send()            — never blocks, message queued;
//   * rendezvous send_sync()         — Ada-style: the sender blocks until a
//                                      receiver retrieves the message, with
//                                      an optional timeout (the paper's
//                                      mechanism for unblocking a sender
//                                      when the receiving site is down);
//   * blocking receive()             — FIFO among waiting receivers;
//   * receive_for()                  — timed receive returning nullopt.
//
// All wake-ups are scheduled (not inlined), so a send never runs the
// receiver in the middle of the sender's statement.
template <typename T>
class Mailbox : public Waitable {
  enum Tag : int { kReceiver = 1, kSender = 2 };

 public:
  explicit Mailbox(Kernel& kernel) : kernel_(kernel) {}

  // ---- receive ----

  class [[nodiscard]] ReceiveAwaiter {
   public:
    ReceiveAwaiter(Mailbox& mb, std::optional<Duration> timeout)
        : mb_(mb), timeout_(timeout) {}

    bool await_ready() {
      item_ = mb_.try_take();
      return item_.has_value();
    }

    void await_suspend(std::coroutine_handle<> h) {
      mb_.kernel_.prepare_wait(node_, &mb_, h);
      node_.tag = kReceiver;
      node_.ctx = this;
      mb_.receivers_.push_back(node_);
      if (timeout_.has_value()) {
        timeout_event_ = mb_.kernel_.schedule_in(*timeout_, [this] {
          mb_.receivers_.remove(node_);
          mb_.kernel_.wake_now(node_, WakeStatus::kTimeout);
        });
      }
    }

    // Empty only after a timeout (nothing was delivered into the slot).
    std::optional<T> await_resume() { return std::move(item_); }

   private:
    friend class Mailbox;
    Mailbox& mb_;
    std::optional<Duration> timeout_;
    WaitNode node_{};
    EventId timeout_event_{};
    std::optional<T> item_{};
  };

  // Blocks until a message arrives; the returned optional is always
  // engaged (the optional form exists only to share the timed path).
  ReceiveAwaiter receive() { return ReceiveAwaiter{*this, std::nullopt}; }

  // Blocks up to `timeout`; nullopt if nothing arrived.
  ReceiveAwaiter receive_for(Duration timeout) {
    return ReceiveAwaiter{*this, timeout};
  }

  // Non-blocking take.
  std::optional<T> try_take() {
    if (!items_.empty()) {
      T item = std::move(items_.front());
      items_.pop_front();
      return item;
    }
    if (!senders_.empty()) {
      WaitNode* node = senders_.pop_front();
      auto* sender = static_cast<SendAwaiter*>(node->ctx);
      T item = std::move(*sender->item_);
      sender->item_.reset();
      complete_sender(*node, *sender);
      return item;
    }
    return std::nullopt;
  }

  // ---- send ----

  // Asynchronous send: queues the message (or hands it to a waiting
  // receiver) and returns immediately.
  void send(T item) {
    if (!receivers_.empty()) {
      deliver(std::move(item));
    } else {
      items_.push_back(std::move(item));
    }
  }

  class [[nodiscard]] SendAwaiter {
   public:
    SendAwaiter(Mailbox& mb, T item, std::optional<Duration> timeout)
        : mb_(mb), item_(std::move(item)), timeout_(timeout) {}

    bool await_ready() {
      if (!mb_.receivers_.empty()) {
        mb_.deliver(std::move(*item_));
        item_.reset();
        return true;
      }
      return false;
    }

    void await_suspend(std::coroutine_handle<> h) {
      mb_.kernel_.prepare_wait(node_, &mb_, h);
      node_.tag = kSender;
      node_.ctx = this;
      mb_.senders_.push_back(node_);
      if (timeout_.has_value()) {
        timeout_event_ = mb_.kernel_.schedule_in(*timeout_, [this] {
          mb_.senders_.remove(node_);
          mb_.kernel_.wake_now(node_, WakeStatus::kTimeout);
        });
      }
    }

    // kOk once a receiver retrieved the message; kTimeout if it was never
    // retrieved in time (the message is then withdrawn).
    WakeStatus await_resume() const noexcept { return node_.status; }

   private:
    friend class Mailbox;
    Mailbox& mb_;
    std::optional<T> item_;
    std::optional<Duration> timeout_;
    WaitNode node_{};
    EventId timeout_event_{};
  };

  // Rendezvous send: blocks until a receiver takes the message.
  SendAwaiter send_sync(T item) {
    return SendAwaiter{*this, std::move(item), std::nullopt};
  }

  // Rendezvous send with timeout; on timeout the message is withdrawn.
  SendAwaiter send_sync_for(T item, Duration timeout) {
    return SendAwaiter{*this, std::move(item), timeout};
  }

  std::size_t queued() const { return items_.size(); }
  std::size_t waiting_receivers() const { return receivers_.size(); }
  std::size_t waiting_senders() const { return senders_.size(); }
  bool empty() const {
    return items_.empty() && senders_.empty();
  }

  void cancel_wait(WaitNode& node) noexcept override {
    if (node.tag == kReceiver) {
      receivers_.remove(node);
      auto* awaiter = static_cast<ReceiveAwaiter*>(node.ctx);
      if (awaiter->timeout_event_.valid()) {
        kernel_.cancel_event(awaiter->timeout_event_);
        awaiter->timeout_event_ = {};
      }
    } else {
      senders_.remove(node);
      auto* awaiter = static_cast<SendAwaiter*>(node.ctx);
      if (awaiter->timeout_event_.valid()) {
        kernel_.cancel_event(awaiter->timeout_event_);
        awaiter->timeout_event_ = {};
      }
    }
  }

  // A receiver's scheduled wake carries a delivered message: put it back
  // at the head so it is not lost. A sender's message was already taken.
  void revoke_wake(WaitNode& node) noexcept override {
    if (node.tag != kReceiver) return;
    auto* receiver = static_cast<ReceiveAwaiter*>(node.ctx);
    items_.push_front(std::move(*receiver->item_));
  }

 private:
  // Hands `item` to the longest-waiting receiver. Pre: receivers_ nonempty.
  void deliver(T item) {
    WaitNode* node = receivers_.pop_front();
    auto* receiver = static_cast<ReceiveAwaiter*>(node->ctx);
    receiver->item_.emplace(std::move(item));
    if (receiver->timeout_event_.valid()) {
      kernel_.cancel_event(receiver->timeout_event_);
      receiver->timeout_event_ = {};
    }
    kernel_.wake_later(*node, WakeStatus::kOk);
  }

  void complete_sender(WaitNode& node, SendAwaiter& sender) {
    if (sender.timeout_event_.valid()) {
      kernel_.cancel_event(sender.timeout_event_);
      sender.timeout_event_ = {};
    }
    kernel_.wake_later(node, WakeStatus::kOk);
  }

  Kernel& kernel_;
  std::deque<T> items_;
  IntrusiveList<WaitNode> receivers_;
  IntrusiveList<WaitNode> senders_;
};

}  // namespace rtdb::sim
