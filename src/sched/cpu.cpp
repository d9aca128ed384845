#include "sched/cpu.hpp"

#include <algorithm>
#include <cassert>

namespace rtdb::sched {

using sim::Duration;
using sim::Priority;
using sim::WaitNode;
using sim::WakeStatus;

PreemptiveCpu::PreemptiveCpu(sim::Kernel& kernel, int cores, std::string name)
    : kernel_(kernel), cores_(cores), name_(std::move(name)) {
  assert(cores_ >= 1);
}

PreemptiveCpu::~PreemptiveCpu() {
  assert(live_jobs_ == 0 && "CPU destroyed with jobs still admitted");
}

void PreemptiveCpu::ExecuteAwaiter::await_suspend(std::coroutine_handle<> h) {
  cpu_.kernel_.prepare_wait(node_, &cpu_, h);
  node_.ctx = this;
  id_ = cpu_.admit(work_, priority_, &node_);
  if (handle_out_ != nullptr) *handle_out_ = id_;
}

JobId PreemptiveCpu::admit(Duration work, Priority priority, WaitNode* node) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(jobs_.size());
    jobs_.emplace_back();
  }
  Job& job = jobs_[slot];
  job.live = true;
  job.running = false;
  job.priority = priority;
  job.remaining = work;
  job.node = node;
  job.completion = {};
  job.admit_seq = admit_seq_++;
  ++live_jobs_;
  if (cores_ == 1) {
    offer(slot);
  } else {
    reschedule();
  }
  return JobId{slot, job.generation};
}

void PreemptiveCpu::set_priority(JobId id, Priority priority) {
  if (find(id) == nullptr) return;  // job already finished; stale id
  jobs_[id.slot].priority = priority;
  if (cores_ == 1 && id.slot != running_slot_) {
    offer(id.slot);
  } else {
    reschedule();
  }
}

bool PreemptiveCpu::job_active(JobId id) const { return find(id) != nullptr; }

Duration PreemptiveCpu::busy_time() const {
  Duration running_now{};
  for (const Job& j : jobs_) {
    if (j.live && j.running) running_now += kernel_.now() - j.started;
  }
  return busy_accum_ + running_now;
}

void PreemptiveCpu::cancel_wait(WaitNode& node) noexcept {
  auto* awaiter = static_cast<ExecuteAwaiter*>(node.ctx);
  remove(awaiter->id_);
}

PreemptiveCpu::Job& PreemptiveCpu::get(JobId id) {
  assert(id.valid() && id.slot < jobs_.size() && jobs_[id.slot].live &&
         jobs_[id.slot].generation == id.generation);
  return jobs_[id.slot];
}

const PreemptiveCpu::Job* PreemptiveCpu::find(JobId id) const {
  if (!id.valid() || id.slot >= jobs_.size()) return nullptr;
  const Job& job = jobs_[id.slot];
  return (job.live && job.generation == id.generation) ? &job : nullptr;
}

void PreemptiveCpu::remove(JobId id) {
  Job& job = get(id);
  const bool was_running = job.running;
  if (was_running) stop_running(job);
  job.live = false;
  job.node = nullptr;
  ++job.generation;
  --live_jobs_;
  free_slots_.push_back(id.slot);
  // On one core a waiting job's departure leaves the strongest job running.
  if (cores_ != 1 || was_running) reschedule();
}

void PreemptiveCpu::complete(JobId id) {
  Job& job = get(id);
  assert(job.running);
  busy_accum_ += kernel_.now() - job.started;
  job.running = false;
  running_slot_ = kNoSlot;
  job.remaining = Duration::zero();
  job.completion = {};
  WaitNode* node = job.node;
  job.live = false;
  job.node = nullptr;
  ++job.generation;
  --live_jobs_;
  free_slots_.push_back(id.slot);
  kernel_.wake_later(*node, WakeStatus::kOk);
  reschedule();
}

bool PreemptiveCpu::outranks(const Job& a, const Job& b) {
  if (a.priority != b.priority) return a.priority.higher_than(b.priority);
  return a.admit_seq < b.admit_seq;
}

void PreemptiveCpu::offer(std::uint32_t slot) {
  // Every other live job ranks below the running one, so the newcomer (or
  // re-prioritised waiter) only has to beat it.
  Job& job = jobs_[slot];
  if (running_slot_ != kNoSlot) {
    Job& running = jobs_[running_slot_];
    if (!outranks(job, running)) return;
    stop_running(running);  // free the core before the winner starts
  }
  start_running(JobId{slot, job.generation}, job);
}

void PreemptiveCpu::reschedule() {
  // The single-core configuration (the paper's) gets a sort-free path; the
  // general path reuses a member scratch vector instead of allocating.
  if (cores_ == 1) {
    // The strongest live job (priority, then admission order) takes the
    // core from whichever job holds it.
    std::uint32_t best = kNoSlot;
    for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
      if (!jobs_[i].live) continue;
      if (best == kNoSlot || outranks(jobs_[i], jobs_[best])) best = i;
    }
    if (best == running_slot_) return;
    // Preempt first so the core is free before the winner starts.
    if (running_slot_ != kNoSlot) stop_running(jobs_[running_slot_]);
    if (best != kNoSlot) {
      start_running(JobId{best, jobs_[best].generation}, jobs_[best]);
    }
    return;
  }

  // Gather live jobs ordered by (priority, admission order); the first
  // `cores_` of them should hold the cores.
  std::vector<std::uint32_t>& order = order_scratch_;
  order.clear();
  order.reserve(live_jobs_);
  for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
    if (jobs_[i].live) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    return outranks(jobs_[a], jobs_[b]);
  });
  const std::size_t n_run = std::min<std::size_t>(order.size(), cores_);

  // Preempt first so cores are free before new jobs start.
  for (std::size_t i = n_run; i < order.size(); ++i) {
    Job& job = jobs_[order[i]];
    if (job.running) stop_running(job);
  }
  for (std::size_t i = 0; i < n_run; ++i) {
    Job& job = jobs_[order[i]];
    if (!job.running) start_running(JobId{order[i], job.generation}, job);
  }
}

void PreemptiveCpu::stop_running(Job& job) {
  assert(job.running);
  const Duration done = kernel_.now() - job.started;
  busy_accum_ += done;
  job.remaining -= done;
  assert(!job.remaining.is_negative());
  job.running = false;
  running_slot_ = kNoSlot;
  kernel_.cancel_event(job.completion);
  job.completion = {};
}

void PreemptiveCpu::start_running(JobId id, Job& job) {
  assert(!job.running);
  job.running = true;
  running_slot_ = id.slot;
  job.started = kernel_.now();
  job.completion =
      kernel_.schedule_in(job.remaining, [this, id] { complete(id); });
}

}  // namespace rtdb::sched
