#include "net/payload.hpp"

#include <atomic>

namespace rtdb::net::detail {

MsgTag next_msg_tag() noexcept {
  static std::atomic<MsgTag> next{1};
  return next++;
}

}  // namespace rtdb::net::detail
