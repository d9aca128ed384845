#pragma once

// Measurement helpers of the benchmark, kept apart from the
// workloads so the self-tests can exercise them without running anything:
// the percentile reporting rule, the output check, and the span recorder
// behind the traced run.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/json.hpp"

namespace perfbench {

// ---- percentiles ----

// Nearest-rank percentile (q in (0, 1]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

// The percentile interpolated within the group of samples tied at the
// nearest-rank value, each sample standing for an interval `width` wide
// (the grouped-data median of Python's statistics.median_grouped,
// generalised to any q). Simulated times are whole ticks, and many
// transactions share one response time; this keeps the figure moving with
// the data around the tie instead of sticking to the tied value.
double grouped_percentile(std::vector<double> samples, double q,
                          double width);

// A percentile is reported only when at least ten samples lie beyond it:
// p99 needs 1000 samples, p50 needs 20.
bool percentile_reportable(std::size_t samples, double q);

// ---- output check ----

// Named exact values (counts, simulated tick totals) in a fixed order. The
// check compares a run's signature against the one recorded for the same
// inputs; any difference is a wrong output, never noise.
using Signature = std::vector<std::pair<std::string, double>>;

struct Mismatch {
  std::string key;
  double expected = 0.0;
  double actual = 0.0;
  bool missing = false;  // key present on one side only
};

// Every key of either side that is absent from the other or whose value
// differs. Values are whole numbers below 2^53, so equality is exact.
std::vector<Mismatch> compare(const Signature& expected,
                              const Signature& actual);
std::string describe(const Mismatch& mismatch);

rtdb::exp::Json to_json(const Signature& signature);
// Reads a signature back; sets `ok` false when `json` is not an object of
// numbers.
Signature signature_from_json(const rtdb::exp::Json& json, bool* ok);

// ---- spans ----

// In-memory span recorder for the traced run. Spans nest by scope on the
// recording thread; each carries a name, start, end, parent and cell id
// (-1 when the span belongs to no workload cell). A disabled tracer records
// nothing and Scope costs one branch.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // since the tracer's epoch
    std::int64_t end_ns = -1;   // -1 while open
    int parent = -1;            // index into spans(); -1 for roots
    int cell = -1;
    std::int64_t duration_ns() const { return end_ns - start_ns; }
  };

  explicit Tracer(bool enabled = true);

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, int cell);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    // Index of the recorded span; -1 when the tracer is disabled.
    int index() const { return index_; }

   private:
    Tracer& tracer_;
    int index_ = -1;
  };

  Scope scope(std::string name, int cell = -1) {
    return Scope{*this, std::move(name), cell};
  }

  // Records a finished span directly (used by the self-tests and for
  // intervals measured elsewhere). Returns its index.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int cell);

  const std::vector<Span>& spans() const { return spans_; }

  // The span's duration minus the part of it covered by its direct
  // children (overlapping children are counted once).
  std::int64_t self_time_ns(int index) const;

  // Chrome trace-event JSON ("X" complete events, microsecond stamps).
  rtdb::exp::Json chrome_trace() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

// ---- host resources ----

// Peak resident set of this process in MiB (VmHWM), 0 when unavailable.
double peak_rss_mb();

}  // namespace perfbench
