#pragma once

#include <cstdint>
#include <exception>
#include <string>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/wait.hpp"

namespace rtdb::sim {

// Identifies a kernel process. Ids are never reused within one kernel.
struct ProcessId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t value = kInvalid;

  bool valid() const { return value != kInvalid; }
  friend bool operator==(ProcessId, ProcessId) = default;
};

enum class ProcessState : std::uint8_t {
  kCreated,   // spawned, start event pending
  kRunning,   // currently executing (it is the kernel's current process)
  kWaiting,   // blocked on a primitive or pending wake
  kDone,      // body finished or process was killed
};

const char* to_string(ProcessState state);

// Process control block. The StarLite kernel of the paper provides process
// create/ready/block/terminate; this is the equivalent record for our
// coroutine-based processes. Owned by the Kernel.
class Process {
 public:
  Process(ProcessId id, std::string name, Task<void> body)
      : id_(id), name_(std::move(name)), body_(std::move(body)) {}

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }
  const std::string& name() const { return name_; }
  ProcessState state() const { return state_; }
  bool done() const { return state_ == ProcessState::kDone; }

 private:
  friend class Kernel;

  ProcessId id_;
  std::string name_;
  Task<void> body_;
  ProcessState state_ = ProcessState::kCreated;
  // The wait this process is currently blocked on, if any. Remains set from
  // suspension until the wake actually resumes the coroutine, so kill() can
  // always reach it.
  WaitNode* waiting_on_ = nullptr;
  EventId start_event_{};
};

}  // namespace rtdb::sim
