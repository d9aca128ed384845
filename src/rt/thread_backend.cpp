#include "rt/thread_backend.hpp"

#include <chrono>

#include "rt/pqlock.hpp"

namespace rtdb::rt {

using std::chrono::nanoseconds;
using std::chrono::steady_clock;

ThreadBackend::ThreadBackend(ThreadBackendConfig config)
    : config_(config),
      worker_count_(config.workers != 0
                        ? config.workers
                        : std::max(1u, std::thread::hardware_concurrency())) {
  threads_.reserve(worker_count_);
  for (std::uint32_t i = 0; i < worker_count_; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  // The clock starts once every worker waits for work: starting threads
  // takes tens of units on a loaded or sanitized host, and a clock already
  // running would charge that to the first transactions' deadlines.
  std::unique_lock<std::mutex> guard(mutex_);
  idle_cv_.wait(guard, [this]() RTDB_REQUIRES(mutex_) {
    return workers_up_ == worker_count_;
  });
  epoch_ = steady_clock::now();
}

ThreadBackend::~ThreadBackend() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    shutdown_ = true;
  }
  queue_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

sim::TimePoint ThreadBackend::now() const {
  const auto elapsed = steady_clock::now() - epoch_;
  const auto ns = std::chrono::duration_cast<nanoseconds>(elapsed).count();
  return sim::TimePoint::at_ticks(
      ns * sim::kTicksPerUnit /
      static_cast<std::int64_t>(config_.unit_nanos));
}

steady_clock::time_point ThreadBackend::to_real(sim::TimePoint t) const {
  return epoch_ + nanoseconds(t.as_ticks() *
                              static_cast<std::int64_t>(config_.unit_nanos) /
                              sim::kTicksPerUnit);
}

void ThreadBackend::advance(sim::Duration d) {
  if (d <= sim::Duration::zero()) return;
  // Absolute target so repeated bursts do not accumulate sleep overshoot.
  const auto target = steady_clock::now() +
                      nanoseconds(d.as_ticks() *
                                  static_cast<std::int64_t>(config_.unit_nanos) /
                                  sim::kTicksPerUnit);
  // Sleep the bulk, spin the tail: OS sleeps routinely overshoot by tens
  // of microseconds, which at 20 µs/unit would smear every CPU burst.
  constexpr auto kSpinTail = std::chrono::microseconds(100);
  if (target - steady_clock::now() > kSpinTail) {
    std::this_thread::sleep_until(target - kSpinTail);
  }
  while (steady_clock::now() < target) cpu_relax();
}

void ThreadBackend::spawn(std::string name, std::function<void()> body) {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    queue_.push_back(Job{std::move(name), std::move(body)});
    ++outstanding_;
  }
  queue_cv_.notify_one();
}

bool ThreadBackend::block(WaitToken& token, sim::TimePoint until) {
  std::unique_lock<std::mutex> guard(token.mutex);
  // wait() invokes the predicate with the lock held; the annotation states
  // what the analysis cannot see through the condition_variable template.
  const auto is_signaled = [&token]() RTDB_REQUIRES(token.mutex) {
    return token.signaled;
  };
  if (until == sim::TimePoint::max()) {
    token.cv.wait(guard, is_signaled);
    return true;
  }
  return token.cv.wait_until(guard, to_real(until), is_signaled);
}

void ThreadBackend::wake(WaitToken& token) {
  {
    const std::lock_guard<std::mutex> guard(token.mutex);
    token.signaled = true;
  }
  token.cv.notify_all();
}

void ThreadBackend::run() {
  std::unique_lock<std::mutex> guard(mutex_);
  idle_cv_.wait(guard,
                [this]() RTDB_REQUIRES(mutex_) { return outstanding_ == 0; });
}

std::uint64_t ThreadBackend::body_exceptions() const {
  const std::lock_guard<std::mutex> guard(mutex_);
  return exceptions_;
}

void ThreadBackend::worker_loop() {
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    if (++workers_up_ == worker_count_) idle_cv_.notify_all();
  }
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> guard(mutex_);
      queue_cv_.wait(guard, [this]() RTDB_REQUIRES(mutex_) {
        return shutdown_ || !queue_.empty();
      });
      if (queue_.empty()) return;  // shutdown with nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    try {
      job.body();
    } catch (...) {
      const std::lock_guard<std::mutex> guard(mutex_);
      ++exceptions_;
    }
    {
      const std::lock_guard<std::mutex> guard(mutex_);
      if (--outstanding_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace rtdb::rt
