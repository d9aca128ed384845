#pragma once

#include <cstdint>

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

}  // namespace rtdb::cc
