#pragma once

// The real-thread execution backend: a fixed worker pool (after the
// static_thread_pool idiom in the related DB-CC repo) pulling spawned
// bodies from a FIFO queue, with the steady clock mapped onto simulation
// time units.
//
// Time mapping: t_sim(ticks) = elapsed_real_ns * kTicksPerUnit /
// unit_nanos, with the epoch pinned once the constructor has every worker
// waiting for work. unit_nanos is the real-time length of one simulation
// unit; the default (20 µs per unit) compresses a paper-scale Fig-2 run
// (~20k units) into under a second of wall clock while keeping sleeps long
// enough for the OS timer to honor.
//
// Runs here are *statistically* reproducible (same seed → same workload,
// same protocol decisions modulo physical interleaving), never bitwise —
// see DESIGN.md for what each backend promises.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "sim/time.hpp"

namespace rtdb::rt {

// A one-shot wake flag a parked thread waits on (block/wake below).
// Reusable via reset() between waits.
class WaitToken {
 public:
  WaitToken() = default;
  WaitToken(const WaitToken&) = delete;
  WaitToken& operator=(const WaitToken&) = delete;

  void reset() RTDB_EXCLUDES(mutex) {
    const std::lock_guard<std::mutex> guard(mutex);
    signaled = false;
  }

  std::mutex mutex;
  std::condition_variable cv;
  bool signaled RTDB_GUARDED_BY(mutex) = false;
};

struct ThreadBackendConfig {
  // Worker threads in the pool. 0 = one per hardware core.
  std::uint32_t workers = 0;
  // Real nanoseconds per simulation time unit.
  std::uint64_t unit_nanos = 20'000;
};

class ThreadBackend {
 public:
  explicit ThreadBackend(ThreadBackendConfig config = {});
  ~ThreadBackend();

  ThreadBackend(const ThreadBackend&) = delete;
  ThreadBackend& operator=(const ThreadBackend&) = delete;

  // The current time, in simulation units.
  sim::TimePoint now() const;
  // Occupies the calling thread for the mapped real-time span of `d`
  // (sleep for the bulk, spin for the tail): a CPU/I-O burst of known
  // length.
  void advance(sim::Duration d);
  // Enqueues a body on the worker pool (FIFO).
  void spawn(std::string name, std::function<void()> body);
  // Parks the calling thread until wake(token) or until the clock reaches
  // `until`, whichever is first. Returns true when woken, false on
  // timeout. Pass sim::TimePoint::max() for no timeout.
  bool block(WaitToken& token, sim::TimePoint until);
  // Signals a parked thread (safe before block: the token latches).
  void wake(WaitToken& token);
  // Returns once everything spawned so far (transitively) has finished.
  void run();

  std::uint32_t workers() const { return worker_count_; }
  std::uint64_t unit_nanos() const { return config_.unit_nanos; }
  // Bodies that escaped with an exception (a bug in the hosted workload;
  // surfaced by tests and the runner's sanity checks).
  std::uint64_t body_exceptions() const;

 private:
  struct Job {
    std::string name;
    std::function<void()> body;
  };

  void worker_loop();
  std::chrono::steady_clock::time_point to_real(sim::TimePoint t) const;

  ThreadBackendConfig config_;
  std::uint32_t worker_count_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;  // workers wait for jobs
  // run() waits for drain, the constructor for every worker to start.
  std::condition_variable idle_cv_;
  std::deque<Job> queue_ RTDB_GUARDED_BY(mutex_);
  // Queued + running bodies.
  std::uint64_t outstanding_ RTDB_GUARDED_BY(mutex_) = 0;
  std::uint64_t exceptions_ RTDB_GUARDED_BY(mutex_) = 0;
  std::uint32_t workers_up_ RTDB_GUARDED_BY(mutex_) = 0;
  bool shutdown_ RTDB_GUARDED_BY(mutex_) = false;

  std::vector<std::thread> threads_;
};

}  // namespace rtdb::rt
