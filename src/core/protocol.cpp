#include "core/protocol.hpp"

#include "cc/hp2pl.hpp"
#include "cc/pcp.hpp"
#include "cc/tso.hpp"
#include "cc/wait_die.hpp"

namespace rtdb::core {

std::unique_ptr<cc::ConcurrencyController> make_controller(
    sim::Kernel& kernel, Protocol protocol, std::uint32_t object_count,
    cc::TwoPhaseLocking::VictimPolicy victim_policy,
    bool pcp_deadlock_backstop) {
  switch (protocol) {
    case Protocol::kTwoPhase:
      return std::make_unique<cc::TwoPhaseLocking>(
          kernel, cc::TwoPhaseLocking::Options{
                      cc::LockTable::QueuePolicy::kFifo, false, victim_policy});
    case Protocol::kTwoPhasePriority:
      return std::make_unique<cc::TwoPhaseLocking>(
          kernel,
          cc::TwoPhaseLocking::Options{cc::LockTable::QueuePolicy::kPriority,
                                       false, victim_policy});
    case Protocol::kPriorityCeiling:
      return std::make_unique<cc::PriorityCeiling>(
          kernel, object_count,
          cc::PriorityCeiling::Options{false, pcp_deadlock_backstop});
    case Protocol::kPriorityCeilingExclusive:
      return std::make_unique<cc::PriorityCeiling>(
          kernel, object_count,
          cc::PriorityCeiling::Options{true, pcp_deadlock_backstop});
    case Protocol::kPriorityInheritance:
      return std::make_unique<cc::PriorityInheritance2PL>(kernel,
                                                          victim_policy);
    case Protocol::kHighPriority:
      return std::make_unique<cc::HighPriority2PL>(kernel);
    case Protocol::kTimestampOrdering:
      return std::make_unique<cc::TimestampOrdering>(kernel);
    case Protocol::kWaitDie:
      return std::make_unique<cc::WaitDie2PL>(kernel);
    case Protocol::kWoundWait:
      return std::make_unique<cc::WoundWait2PL>(kernel);
  }
  return nullptr;
}

void attach_audit(check::ConformanceMonitor& monitor,
                  cc::ConcurrencyController& controller, Protocol protocol) {
  switch (protocol) {
    case Protocol::kTwoPhase:
    case Protocol::kTwoPhasePriority:
    case Protocol::kPriorityInheritance:
      monitor.attach(controller, check::ProtocolFamily::kTwoPhase);
      return;
    case Protocol::kPriorityCeiling:
    case Protocol::kPriorityCeilingExclusive:
      monitor.attach(controller, check::ProtocolFamily::kCeiling);
      return;
    case Protocol::kHighPriority:
      monitor.attach(controller, check::ProtocolFamily::kHighPriority);
      return;
    case Protocol::kWaitDie:
      monitor.attach(controller, check::ProtocolFamily::kWaitDie);
      return;
    case Protocol::kWoundWait:
      monitor.attach(controller, check::ProtocolFamily::kWoundWait);
      return;
    case Protocol::kTimestampOrdering:
      monitor.attach_timestamp(controller);
      return;
  }
}

}  // namespace rtdb::core
