#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "db/types.hpp"

namespace rtdb::cc {

enum class LockMode : std::uint8_t { kRead, kWrite };

inline const char* to_string(LockMode mode) {
  return mode == LockMode::kRead ? "read" : "write";
}

// Read-read is the only compatible pair.
inline bool compatible(LockMode a, LockMode b) {
  return a == LockMode::kRead && b == LockMode::kRead;
}

// Why a transaction attempt was aborted.
enum class AbortReason : std::uint8_t {
  kDeadlineMiss,     // hard deadline expired; transaction disappears
  kDeadlockVictim,   // chosen to break a 2PL/PIP deadlock; restarts
  kWounded,          // aborted by a higher-priority requester (2PL-HP)
  kTimestampOrder,   // timestamp-ordering conflict; restarts
  kAgeBased,         // wait-die "die" (younger yields to older); restarts
  kSystem,           // shutdown/teardown
};

const char* to_string(AbortReason reason);

// The thread backend's self-abort (src/rt): thrown inside a worker's own
// acquire when the protocol decides its transaction must abort; the runner
// catches it, releases everything, and restarts the attempt. Simulated
// protocols return the AbortReason from acquire() instead.
class TxnAborted : public std::runtime_error {
 public:
  explicit TxnAborted(AbortReason reason)
      : std::runtime_error(std::string{"transaction aborted: "} +
                           to_string(reason)),
        reason_(reason) {}

  AbortReason reason() const { return reason_; }

 private:
  AbortReason reason_;
};

}  // namespace rtdb::cc
