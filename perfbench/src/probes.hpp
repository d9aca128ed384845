#pragma once

// Per-layer probes of the traced run. Each probe calls one layer's public
// functions on the workload's own generated transactions and records one
// span around its call loop; main.cpp divides the span's self time by
// the number of items the loop handled (events, resumes, jobs, lock
// requests, messages, ...), never by loop iterations.

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "harness.hpp"
#include "txn/transaction.hpp"
#include "workloads.hpp"

namespace perfbench {

struct ProbeInputs {
  std::vector<Cell> cells;  // the workload's cells (configs)
  std::vector<rtdb::txn::TransactionSpec> specs;  // generated from them
  // One run result per cell, for the artifact probe.
  std::vector<rtdb::core::RunResult> results;
};

// Generates up to `per_cell` transactions of every cell with the
// workload's own generator.
ProbeInputs make_probe_inputs(const std::vector<Cell>& cells,
                              std::size_t per_cell);

struct Probe {
  const char* metric;
  const char* unit;      // names the item: ns/event, ms/system, ...
  double ns_per_unit;    // divides ns per item into the unit
  // Runs one call loop under a span named `metric`; returns the items it
  // handled and stores the span's index in `span`.
  std::uint64_t (*run)(const ProbeInputs& inputs, Tracer& tracer,
                       const char* metric, int& span);
};

// Every probe, in report order.
const std::vector<Probe>& probes();

}  // namespace perfbench
