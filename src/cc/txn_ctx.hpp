#pragma once

#include <cstdint>

#include "cc/access_set.hpp"
#include "cc/types.hpp"
#include "db/types.hpp"
#include "sim/priority.hpp"
#include "sim/time.hpp"

namespace rtdb::cc {

// The concurrency-control view of one transaction attempt. Owned by the
// transaction layer; protocols read the identity/priority/declared-set
// fields and maintain the dynamic blocking/inheritance fields.
struct CcTxn {
  db::TxnId id{};
  // 1-based attempt number stamped by the transaction manager; 0 for
  // contexts built outside it (unit tests). Distributed
  // protocols stamp it into control messages so a retransmitted message
  // from an aborted attempt can't corrupt the state of the current one.
  std::uint32_t attempt = 0;
  // Assigned once at arrival (earliest deadline = highest priority); fixed
  // for the transaction's lifetime as the ceiling protocol requires.
  sim::Priority base_priority{};
  // The hard deadline, stamped by the transaction layer (origin for
  // contexts built outside it). Protocols ignore it; the distributed
  // controllers ship it to the ceiling manager, whose orphan reaper may
  // deregister a mirror once it is provably dead — past its deadline the
  // home site's watchdog has killed the transaction, so a mirror still
  // present only means its teardown messages were lost.
  sim::TimePoint deadline{};
  AccessSet access;

  // ---- maintained by the controller ----
  // Strongest priority currently inherited from transactions this one
  // blocks; lowest() when none.
  sim::Priority inherited = sim::Priority::lowest();
  // Whether the transaction is currently blocked inside acquire().
  bool blocked = false;
  sim::TimePoint blocked_since{};

  // ---- controller-internal scratch ----
  // Fixpoint accumulator and epoch-stamped DFS marks reused by the lock
  // protocols' inheritance/deadlock passes so they run without per-call
  // heap allocation. Each context belongs to exactly one controller;
  // values are meaningless outside a single pass.
  sim::Priority scratch_priority = sim::Priority::lowest();
  // PCP only: scratch_priority holds a value of the current round only when
  // stamped with the round's epoch; otherwise it reads as lowest().
  std::uint64_t scratch_priority_epoch = 0;
  // Locks currently held in the owning LockTable; bounds its release scan.
  std::uint32_t scratch_hold_count = 0;
  std::uint64_t scratch_edge_epoch = 0;
  std::uint32_t scratch_edge_index = 0;
  std::uint64_t scratch_colour_epoch = 0;
  std::uint8_t scratch_colour = 0;

  // ---- statistics (read by the performance monitor) ----
  sim::Duration blocked_total{};
  std::uint32_t block_count = 0;
  // PCP only: times the transaction was denied although the requested
  // object itself was unlocked (the "insurance premium" of total ordering).
  std::uint32_t ceiling_blocks = 0;

  // The priority the scheduler and protocols observe.
  sim::Priority effective_priority() const {
    return sim::Priority::stronger(base_priority, inherited);
  }
};

}  // namespace rtdb::cc
