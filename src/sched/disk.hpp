#pragma once

#include <cstdint>
#include <string>

#include "sim/intrusive_list.hpp"
#include "sim/kernel.hpp"
#include "sim/priority.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace rtdb::sched {

// I/O subsystem of one site.
//
// Models `servers` identical disks fed by a single queue (priority order,
// ties FIFO). With servers == kUnlimited it degenerates to a pure delay,
// which is the paper's "parallel I/O processing" assumption for the
// single-site experiments; the distributed experiments use a
// memory-resident database and skip I/O entirely.
class IoSubsystem : public sim::Waitable {
 public:
  static constexpr int kUnlimited = 0;

  IoSubsystem(sim::Kernel& kernel, int servers = kUnlimited,
              std::string name = "io");
  ~IoSubsystem();

  IoSubsystem(const IoSubsystem&) = delete;
  IoSubsystem& operator=(const IoSubsystem&) = delete;

  class [[nodiscard]] IoAwaiter {
   public:
    IoAwaiter(IoSubsystem& io, sim::Duration service, sim::Priority priority)
        : io_(io), service_(service), priority_(priority) {}

    bool await_ready() const { return service_.is_zero(); }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const noexcept {}

   private:
    friend class IoSubsystem;
    IoSubsystem& io_;
    sim::Duration service_;
    sim::Priority priority_;
    bool in_service_ = false;
    sim::TimePoint started_{};
    sim::EventId completion_{};
    sim::WaitNode node_{};
  };

  // Performs one I/O taking `service` of disk time; queues when all disks
  // are busy. Higher-priority requests are served first.
  IoAwaiter io(sim::Duration service,
               sim::Priority priority = sim::Priority::lowest()) {
    return IoAwaiter{*this, service, priority};
  }

  bool unlimited() const { return servers_ == kUnlimited; }
  int busy() const { return busy_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t completed() const { return completed_; }
  sim::Duration busy_time() const { return busy_accum_; }

  void cancel_wait(sim::WaitNode& node) noexcept override;

 private:
  void start_service(IoAwaiter& awaiter);
  void finish_service(IoAwaiter& awaiter);
  void dispatch_next();

  sim::Kernel& kernel_;
  int servers_;
  std::string name_;
  int busy_ = 0;
  std::uint64_t completed_ = 0;
  sim::Duration busy_accum_{};
  sim::IntrusiveList<sim::WaitNode> queue_;
};

}  // namespace rtdb::sched
