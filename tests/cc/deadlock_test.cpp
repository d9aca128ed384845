#include "cc/deadlock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

namespace rtdb::cc {
namespace {

db::TxnId T(std::uint64_t v) { return db::TxnId{v}; }

// Adjacency lists standing in for the lock table: the search sees exactly
// the edges added here, in insertion order.
class WaitForGraph {
 public:
  void add_edge(db::TxnId waiter, db::TxnId holder) {
    out_[waiter].push_back(holder);
  }

  std::size_t edge_count() const {
    std::size_t n = 0;
    for (const auto& [waiter, targets] : out_) n += targets.size();
    return n;
  }

  std::size_t waits_of(db::TxnId waiter) const {
    auto it = out_.find(waiter);
    return it == out_.end() ? 0 : it->second.size();
  }

  std::vector<db::TxnId> find_cycle_from(db::TxnId start) {
    auto targets = [this](db::TxnId node, std::vector<db::TxnId>& out) {
      auto it = out_.find(node);
      if (it != out_.end()) {
        out.insert(out.end(), it->second.begin(), it->second.end());
      }
    };
    const auto cycle = finder_.find_cycle_from(start, targets);
    return {cycle.begin(), cycle.end()};
  }

 private:
  std::map<db::TxnId, std::vector<db::TxnId>> out_;
  CycleFinder finder_;
};

TEST(WaitForGraphTest, NoCycleInChain) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(2), T(3));
  EXPECT_TRUE(g.find_cycle_from(T(1)).empty());
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(WaitForGraphTest, DetectsTwoCycle) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(2), T(1));
  auto cycle = g.find_cycle_from(T(1));
  ASSERT_EQ(cycle.size(), 2u);
  EXPECT_TRUE(std::find(cycle.begin(), cycle.end(), T(1)) != cycle.end());
  EXPECT_TRUE(std::find(cycle.begin(), cycle.end(), T(2)) != cycle.end());
}

TEST(WaitForGraphTest, DetectsLongCycleReachableFromStart) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(2), T(3));
  g.add_edge(T(3), T(4));
  g.add_edge(T(4), T(2));  // cycle 2-3-4, reachable from 1 but excluding it
  auto cycle = g.find_cycle_from(T(1));
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_TRUE(std::find(cycle.begin(), cycle.end(), T(1)) == cycle.end());
}

TEST(WaitForGraphTest, SelfEdgeIgnored) {
  WaitForGraph g;
  g.add_edge(T(1), T(1));
  EXPECT_EQ(g.edge_count(), 1u);  // stored here; the search skips it
  EXPECT_TRUE(g.find_cycle_from(T(1)).empty());
}

TEST(WaitForGraphTest, MultipleTargetsPerWaiter) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(1), T(3));
  EXPECT_EQ(g.waits_of(T(1)), 2u);
  g.add_edge(T(3), T(1));
  auto cycle = g.find_cycle_from(T(1));
  ASSERT_FALSE(cycle.empty());
}

TEST(WaitForGraphTest, DiamondWithoutCycle) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(1), T(3));
  g.add_edge(T(2), T(4));
  g.add_edge(T(3), T(4));
  EXPECT_TRUE(g.find_cycle_from(T(1)).empty());
}

TEST(WaitForGraphTest, CycleOrderStartsAtEntryPoint) {
  WaitForGraph g;
  g.add_edge(T(5), T(6));
  g.add_edge(T(6), T(7));
  g.add_edge(T(7), T(5));
  auto cycle = g.find_cycle_from(T(5));
  ASSERT_EQ(cycle.size(), 3u);
  EXPECT_EQ(cycle.front(), T(5));  // path suffix starts at the repeat node
}

TEST(WaitForGraphTest, SmallerTargetExploredFirst) {
  WaitForGraph g;
  // Two cycles through 1: via 3 and via 2. The larger target is listed
  // first, yet the search takes the smaller one.
  g.add_edge(T(1), T(3));
  g.add_edge(T(1), T(2));
  g.add_edge(T(3), T(1));
  g.add_edge(T(2), T(1));
  EXPECT_EQ(g.find_cycle_from(T(1)), (std::vector<db::TxnId>{T(1), T(2)}));
}

TEST(WaitForGraphTest, ReusedFinderForgetsPreviousGraph) {
  WaitForGraph g;
  g.add_edge(T(1), T(2));
  g.add_edge(T(2), T(1));
  ASSERT_EQ(g.find_cycle_from(T(1)).size(), 2u);
  EXPECT_TRUE(g.find_cycle_from(T(3)).empty());  // 3 waits for nothing
  EXPECT_EQ(g.find_cycle_from(T(2)), (std::vector<db::TxnId>{T(2), T(1)}));
}

}  // namespace
}  // namespace rtdb::cc
