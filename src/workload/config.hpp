#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.hpp"

namespace rtdb::workload {

// How generated transactions are assigned a home site and access sets.
enum class Assignment : std::uint8_t {
  // Everything at site 0 (single-site experiments).
  kSingleSite,
  // Objects chosen uniformly from the whole database; home site uniform
  // (the partitioned / global-ceiling experiments: accesses may be remote).
  kUniformSite,
  // The paper's replicated model: "update transactions are assigned to a
  // site based on their write-set, and read-only transactions are
  // distributed randomly" — an update transaction picks a home site and
  // draws its write set from that site's primary copies; read-only
  // transactions pick a random site and read local (replica) copies drawn
  // uniformly from the whole database.
  kHomeByWriteSet,
};

// One periodic transaction source (the environment supports "periodic and
// aperiodic" transaction types).
struct PeriodicSource {
  sim::Duration period{};
  sim::Duration phase{};  // first release time
  std::uint32_t size = 1;
  bool read_only = false;
  // Implicit deadline (the next release), scaled by this factor.
  double deadline_slack = 1.0;
  // Pin the source to one site (a radar station updating its own view);
  // nullopt follows the assignment policy like aperiodic transactions.
  std::optional<std::uint32_t> home_site{};
};

struct WorkloadConfig {
  // Aperiodic stream: exponentially distributed interarrival times.
  sim::Duration mean_interarrival = sim::Duration::units(10);
  // Transaction size drawn uniformly from [size_min, size_max].
  std::uint32_t size_min = 1;
  std::uint32_t size_max = 4;
  // Fraction of read-only transactions; the rest are updates
  // (read-modify-write on every object they access).
  double read_only_fraction = 0.0;
  // Hard deadline: arrival + slack * size * est_time_per_object, with the
  // slack factor drawn uniformly from [slack_min, slack_max] — "each
  // transaction's deadline is set in proportion to its size and system
  // workload".
  double slack_min = 4.0;
  double slack_max = 8.0;
  sim::Duration est_time_per_object = sim::Duration::units(3);
  // Total aperiodic transactions to generate (the experiments run a fixed
  // batch to completion and measure over it).
  std::uint64_t transaction_count = 1000;
  // Zipfian hot-key skew over the object space: object picks follow
  // P(object r) proportional to 1 / (r + 1)^zipf_theta, so low-numbered
  // objects are the hot ranks. 0 (the default) is the uniform draw the
  // paper uses — the zero path is bit-identical to a build without the
  // knob (same RNG calls in the same order).
  double zipf_theta = 0.0;

  Assignment assignment = Assignment::kSingleSite;

  std::vector<PeriodicSource> periodic;
};

}  // namespace rtdb::workload
