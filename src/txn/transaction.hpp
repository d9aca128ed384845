#pragma once

#include <cstdint>
#include <optional>

#include "cc/access_set.hpp"
#include "cc/controller.hpp"
#include "cc/txn_ctx.hpp"
#include "db/types.hpp"
#include "net/network.hpp"
#include "sched/cpu.hpp"
#include "sim/kernel.hpp"
#include "sim/priority.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace rtdb::txn {

// Immutable description of one transaction, fixed at arrival.
struct TransactionSpec {
  db::TxnId id{};
  net::SiteId home_site = 0;
  bool read_only = false;
  cc::AccessSet access;
  sim::TimePoint arrival{};
  sim::TimePoint deadline{};
  // Assigned at arrival: earliest deadline = highest priority, fixed for
  // the transaction's lifetime.
  sim::Priority priority{};

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(access.size());
  }
};

// Per-attempt mutable state shared between the TransactionManager and the
// executor.
struct AttemptContext {
  cc::CcTxn ctx;
  // The attempt's current CPU job, published by the executor so priority
  // inheritance can be propagated to the scheduler mid-computation.
  sched::JobId cpu_job{};
  // Set by the executor once the controller saw on_begin; release() is a
  // no-op before that (an attempt can be killed before it ever ran).
  bool began = false;

  // Fresh state for the next attempt.
  void reset() {
    ctx = cc::CcTxn{};
    cpu_job = {};
    began = false;
  }
};

// Executes transaction attempts against a site's services. The manager
// owns the lifecycle (watchdog, restarts, statistics); the executor owns
// the body. Every scheme runs the same body, core::Executor, which sits
// above this layer because it reaches into dist and net.
//
// Contract per attempt:
//   run()      returns nullopt => the transaction committed;
//              returns an AbortReason => protocol restart;
//              never returns if the attempt is killed (the kill destroys
//              its frames at the suspension point).
//   release()  called exactly once after run() ended by any path (by the
//              body on commit/self-abort, by the manager after a kill);
//              must synchronously free everything the attempt held.
class TxnExecutor {
 public:
  virtual ~TxnExecutor() = default;
  virtual sim::Task<std::optional<cc::AbortReason>> run(
      AttemptContext& attempt, const TransactionSpec& spec) = 0;
  virtual void release(AttemptContext& attempt, const TransactionSpec& spec,
                       bool committed) = 0;
};

}  // namespace rtdb::txn
