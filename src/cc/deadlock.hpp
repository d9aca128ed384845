#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "db/types.hpp"

namespace rtdb::cc {

// Cycle search over a transaction wait-for graph; used by the protocols
// that can deadlock (2PL with and without priority, basic priority
// inheritance). The priority ceiling protocol never consults it — deadlock
// freedom is one of its guarantees and the tests assert it.
//
// The graph is not stored: the caller supplies each node's edges, so the
// search always reads the live wait state. Its vectors are reused across
// calls, so a warmed-up finder does not allocate.
class CycleFinder {
 public:
  // Depth-first search from `start`. `targets(node, out)` appends the
  // transactions `node` waits for to `out` (nothing when it does not wait);
  // a self-edge is ignored. Each node's targets are explored in ascending id
  // order, so the result depends only on the graph, not on the order the
  // callback lists it in.
  // Returns the transactions on the first cycle found, in wait order
  // starting with the node where the path re-entered itself, or an empty
  // span when no cycle is reachable. The span is valid until the next call.
  template <typename Targets>
  std::span<const db::TxnId> find_cycle_from(db::TxnId start,
                                             Targets&& targets);

 private:
  // One path node; its targets are targets_[first, end), where `end` is
  // the next frame's `first` (or targets_.size() for the top frame).
  struct Frame {
    std::size_t first = 0;
    std::size_t next = 0;
  };

  std::vector<db::TxnId> targets_;
  std::vector<db::TxnId> path_;
  std::vector<Frame> frames_;
  std::vector<db::TxnId> done_;  // finished nodes: they reach no cycle
};

template <typename Targets>
std::span<const db::TxnId> CycleFinder::find_cycle_from(db::TxnId start,
                                                        Targets&& targets) {
  // The graph is tiny (bounded by the number of concurrently blocked
  // transactions), so membership tests are linear scans.
  targets_.clear();
  path_.clear();
  frames_.clear();
  done_.clear();
  auto push = [&](db::TxnId node) {
    const std::size_t first = targets_.size();
    targets(node, targets_);
    const auto begin = targets_.begin() + static_cast<std::ptrdiff_t>(first);
    targets_.erase(std::remove(begin, targets_.end(), node), targets_.end());
    std::sort(begin, targets_.end());
    path_.push_back(node);
    frames_.push_back(Frame{first, first});
  };

  push(start);
  while (!frames_.empty()) {
    Frame& frame = frames_.back();
    if (frame.next == targets_.size()) {
      done_.push_back(path_.back());
      targets_.resize(frame.first);
      path_.pop_back();
      frames_.pop_back();
      continue;
    }
    const db::TxnId next = targets_[frame.next++];
    const auto repeat = std::find(path_.begin(), path_.end(), next);
    if (repeat != path_.end()) return {repeat, path_.end()};
    if (std::find(done_.begin(), done_.end(), next) == done_.end()) {
      push(next);
    }
  }
  return {};
}

}  // namespace rtdb::cc
