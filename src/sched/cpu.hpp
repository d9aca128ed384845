#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/priority.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace rtdb::sched {

// Identifies a job admitted to a PreemptiveCpu. Valid until the job
// completes or its process is killed.
struct JobId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t slot = kInvalid;
  std::uint32_t generation = 0;
  bool valid() const { return slot != kInvalid; }
  friend bool operator==(JobId, JobId) = default;
};

// A priority-preemptive CPU with one or more identical cores.
//
// A transaction executes its computation with `co_await cpu.execute(work,
// priority, &job)`; a higher-priority arrival immediately preempts the
// lowest-priority running job (the preempted job keeps its remaining work
// and resumes when a core frees up). set_priority() supports priority
// inheritance: raising a blocked-holder's priority re-evaluates the
// running set at once.
//
// All scheduling decisions are deterministic: ties are broken by admission
// order.
//
// On a single core the running job is always the strongest live job, so an
// admission or a priority change of a waiting job is compared with the
// running job alone; the scan over every slot runs only when the running
// job completes, is killed, or changes its own priority.
class PreemptiveCpu : public sim::Waitable {
 public:
  PreemptiveCpu(sim::Kernel& kernel, int cores = 1, std::string name = "cpu");
  ~PreemptiveCpu();

  PreemptiveCpu(const PreemptiveCpu&) = delete;
  PreemptiveCpu& operator=(const PreemptiveCpu&) = delete;

  class [[nodiscard]] ExecuteAwaiter {
   public:
    ExecuteAwaiter(PreemptiveCpu& cpu, sim::Duration work,
                   sim::Priority priority, JobId* handle_out)
        : cpu_(cpu), work_(work), priority_(priority), handle_out_(handle_out) {}

    bool await_ready() const { return work_.is_zero(); }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    friend class PreemptiveCpu;
    PreemptiveCpu& cpu_;
    sim::Duration work_;
    sim::Priority priority_;
    JobId* handle_out_;
    JobId id_{};
    sim::WaitNode node_{};
  };

  // Runs `work` of computation at `priority`, competing with every other
  // job on this CPU. If `handle_out` is non-null it receives the JobId on
  // admission (for later set_priority calls).
  ExecuteAwaiter execute(sim::Duration work, sim::Priority priority,
                         JobId* handle_out = nullptr) {
    return ExecuteAwaiter{*this, work, priority, handle_out};
  }

  // Priority inheritance hook: changes a live job's priority and
  // immediately re-evaluates which jobs hold the cores. No-op for
  // completed/killed jobs (stale ids are detected).
  void set_priority(JobId id, sim::Priority priority);

  bool job_active(JobId id) const;

  int cores() const { return cores_; }
  std::size_t active_jobs() const { return live_jobs_; }

  // Total core-busy virtual time accumulated so far (across all cores).
  sim::Duration busy_time() const;

  void cancel_wait(sim::WaitNode& node) noexcept override;

 private:
  struct Job {
    std::uint32_t generation = 0;
    bool live = false;
    bool running = false;
    sim::Priority priority;
    sim::Duration remaining;
    sim::TimePoint started;       // last time it was put on a core
    sim::WaitNode* node = nullptr;
    sim::EventId completion{};
    std::uint64_t admit_seq = 0;  // deterministic tie-break
  };

  Job& get(JobId id);
  const Job* find(JobId id) const;
  JobId admit(sim::Duration work, sim::Priority priority, sim::WaitNode* node);
  void remove(JobId id);
  void complete(JobId id);
  // Whether `a` should hold a core in preference to `b`.
  static bool outranks(const Job& a, const Job& b);
  // Ensures the `cores_` highest-priority live jobs (and only they) are
  // running; charges preempted jobs for the work done so far.
  void reschedule();
  // Single core: gives the core to the live, waiting job in `slot` if it
  // outranks the running job.
  void offer(std::uint32_t slot);
  void stop_running(Job& job);
  void start_running(JobId id, Job& job);

  sim::Kernel& kernel_;
  int cores_;
  std::string name_;
  std::vector<Job> jobs_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> order_scratch_;  // reschedule(), multi-core path
  // Single core: the slot holding the core, or kNoSlot when idle. Unused
  // with more cores.
  static constexpr std::uint32_t kNoSlot = JobId::kInvalid;
  std::uint32_t running_slot_ = kNoSlot;
  std::size_t live_jobs_ = 0;
  std::uint64_t admit_seq_ = 0;
  mutable sim::Duration busy_accum_{};
};

}  // namespace rtdb::sched
