#pragma once

// Drives one full experiment run on the thread backend: replays the
// seed-deterministic workload generator to pre-compute the arrival
// schedule (bit-identical to the one the simulation would submit), then
// releases each transaction at its arrival instant onto the worker pool,
// where it executes the same per-operation body as core::Executor on a
// single site — acquire granule, read I/O, compute, one write I/O per
// written object at commit — against the RtLockTable, which runs the
// simulator's controller for the protocol.
//
// Restrictions (checked, not silent): single-site scheme, no periodic
// sources, no admission control. The distributed schemes, periodic
// drivers and load shedding stay simulation-only for now.

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "rt/lock_table.hpp"
#include "stats/monitor.hpp"

namespace rtdb::rt {

struct RtRunResult {
  std::vector<stats::TxnRecord> records;
  sim::Duration elapsed{};  // first release to drain, in sim units
  RtLockStats locks;
  std::uint64_t restarts = 0;
  std::uint64_t deadline_kills = 0;
  // Monitor violations + quiescence failure + body exceptions.
  std::uint64_t conformance_violations = 0;
  std::string quiescence_failure;            // empty when clean

  // Provenance of the numbers.
  std::uint32_t workers = 0;
  std::uint64_t unit_nanos = 0;
  std::uint64_t body_exceptions = 0;
};

struct RtRunnerConfig {
  std::uint32_t workers = 0;       // 0 = one per hardware core
  std::uint64_t unit_nanos = 20'000;
  // Blocking-bound gate (sim units; zero = off): the conformance monitor
  // counts every blocking episode longer than this into bound_violations.
  // The caller (core/experiment.cpp) derives it from analysis::analyze —
  // the thread-backend margin for real-clock wakeup overshoot is already
  // in the analyzer's figure, so the gate is used as-is.
  sim::Duration bound_gate{};
};

// Runs config's workload to completion on real threads. Throws
// std::invalid_argument when the configuration needs simulation-only
// machinery (distributed scheme, periodic sources, admission control).
RtRunResult run_threaded(const core::SystemConfig& config,
                         const RtRunnerConfig& runner_config);

}  // namespace rtdb::rt
