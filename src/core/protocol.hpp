#pragma once

// The one place a core::Protocol becomes a running controller and an audit
// rule set. core::System builds its per-site controllers here and the thread
// backend (rt::RtLockTable) its shared one, so both backends run the same
// cc:: objects under the same conformance rules. Its own library
// (rtdb_protocol), so src/rt reaches it without linking core.

#include <cstdint>
#include <memory>

#include "cc/controller.hpp"
#include "cc/two_phase.hpp"
#include "check/monitor.hpp"
#include "core/config.hpp"
#include "sim/kernel.hpp"

namespace rtdb::core {

// A fresh controller for `protocol` over `object_count` lockable objects
// (granules), on `kernel`'s clock and processes.
std::unique_ptr<cc::ConcurrencyController> make_controller(
    sim::Kernel& kernel, Protocol protocol, std::uint32_t object_count,
    cc::TwoPhaseLocking::VictimPolicy victim_policy,
    bool pcp_deadlock_backstop);

// Attaches the audit `protocol`'s controller is checked against: its lock
// family's rules, or the timestamp shadow for timestamp ordering.
void attach_audit(check::ConformanceMonitor& monitor,
                  cc::ConcurrencyController& controller, Protocol protocol);

}  // namespace rtdb::core
