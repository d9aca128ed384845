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
  reschedule();
  return JobId{slot, job.generation};
}

void PreemptiveCpu::set_priority(JobId id, Priority priority) {
  if (find(id) == nullptr) return;  // job already finished; stale id
  jobs_[id.slot].priority = priority;
  reschedule();
}

bool PreemptiveCpu::job_active(JobId id) const { return find(id) != nullptr; }

std::size_t PreemptiveCpu::running_jobs() const {
  std::size_t n = 0;
  for (const Job& j : jobs_) {
    if (j.live && j.running) ++n;
  }
  return n;
}

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
  if (job.running) stop_running(job);
  job.live = false;
  job.node = nullptr;
  ++job.generation;
  --live_jobs_;
  free_slots_.push_back(id.slot);
  reschedule();
}

void PreemptiveCpu::complete(JobId id) {
  Job& job = get(id);
  assert(job.running);
  busy_accum_ += kernel_.now() - job.started;
  job.running = false;
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

void PreemptiveCpu::reschedule() {
  // This runs on every admit/complete/priority change, so the single-core
  // configuration (the paper's) gets a sort-free fast path and the general
  // path reuses a member scratch vector instead of allocating.
  if (cores_ == 1) {
    // The strongest live job (priority, then admission order) takes the
    // core; everyone else is preempted.
    Job* best = nullptr;
    std::uint32_t best_slot = 0;
    for (std::uint32_t i = 0; i < jobs_.size(); ++i) {
      Job& job = jobs_[i];
      if (!job.live) continue;
      if (best == nullptr || job.priority.higher_than(best->priority) ||
          (job.priority == best->priority &&
           job.admit_seq < best->admit_seq)) {
        best = &job;
        best_slot = i;
      }
    }
    // Preempt first so the core is free before the winner starts.
    for (Job& job : jobs_) {
      if (job.live && job.running && &job != best) stop_running(job);
    }
    if (best != nullptr && !best->running) {
      start_running(JobId{best_slot, best->generation}, *best);
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
    const Job& ja = jobs_[a];
    const Job& jb = jobs_[b];
    if (ja.priority != jb.priority) return ja.priority.higher_than(jb.priority);
    return ja.admit_seq < jb.admit_seq;
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
  kernel_.cancel_event(job.completion);
  job.completion = {};
}

void PreemptiveCpu::start_running(JobId id, Job& job) {
  assert(!job.running);
  job.running = true;
  job.started = kernel_.now();
  job.completion =
      kernel_.schedule_in(job.remaining, [this, id] { complete(id); });
}

}  // namespace rtdb::sched
