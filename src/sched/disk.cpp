#include "sched/disk.hpp"

#include <cassert>

namespace rtdb::sched {

using sim::Priority;
using sim::WaitNode;
using sim::WakeStatus;

IoSubsystem::IoSubsystem(sim::Kernel& kernel, int servers, std::string name)
    : kernel_(kernel), servers_(servers), name_(std::move(name)) {
  assert(servers_ >= 0);
}

IoSubsystem::~IoSubsystem() {
  assert(queue_.empty() && busy_ == 0 &&
         "I/O subsystem destroyed with requests in flight");
}

void IoSubsystem::IoAwaiter::await_suspend(std::coroutine_handle<> h) {
  io_.kernel_.prepare_wait(node_, &io_, h);
  node_.ctx = this;
  if (io_.unlimited() || io_.busy_ < io_.servers_) {
    io_.start_service(*this);
    return;
  }
  // Insert in priority order (FIFO among equals: insert before the first
  // strictly lower-priority entry).
  WaitNode* pos = nullptr;
  io_.queue_.for_each([&](WaitNode& n) {
    if (pos != nullptr) return;
    auto* other = static_cast<IoAwaiter*>(n.ctx);
    if (priority_.higher_than(other->priority_)) pos = &n;
  });
  if (pos != nullptr) {
    io_.queue_.insert_before(*pos, node_);
  } else {
    io_.queue_.push_back(node_);
  }
}

void IoSubsystem::start_service(IoAwaiter& awaiter) {
  ++busy_;
  awaiter.in_service_ = true;
  awaiter.started_ = kernel_.now();
  awaiter.completion_ = kernel_.schedule_in(
      awaiter.service_, [this, &awaiter] { finish_service(awaiter); });
}

void IoSubsystem::finish_service(IoAwaiter& awaiter) {
  assert(awaiter.in_service_);
  --busy_;
  ++completed_;
  busy_accum_ += awaiter.service_;
  awaiter.in_service_ = false;
  awaiter.completion_ = {};
  kernel_.wake_later(awaiter.node_, WakeStatus::kOk);
  dispatch_next();
}

void IoSubsystem::dispatch_next() {
  if (unlimited()) return;
  while (busy_ < servers_ && !queue_.empty()) {
    WaitNode* node = queue_.pop_front();
    start_service(*static_cast<IoAwaiter*>(node->ctx));
  }
}

void IoSubsystem::cancel_wait(WaitNode& node) noexcept {
  auto* awaiter = static_cast<IoAwaiter*>(node.ctx);
  if (awaiter->in_service_) {
    kernel_.cancel_event(awaiter->completion_);
    awaiter->completion_ = {};
    awaiter->in_service_ = false;
    --busy_;
    busy_accum_ += kernel_.now() - awaiter->started_;
    dispatch_next();
  } else {
    queue_.remove(node);
  }
}

}  // namespace rtdb::sched
