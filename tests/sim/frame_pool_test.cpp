#include <gtest/gtest.h>

#include "sim/frame_pool.hpp"
#include "sim/task.hpp"

// The coroutine frame pool promises steady-state reuse with no
// per-operation heap traffic, and a clean handover back to the global heap
// on destruction. The whole suite runs under ASan/LSan in CI, so
// "recycling leaks nothing" is enforced by the sanitizer, not just asserted
// here.
namespace rtdb::sim {
namespace {

TEST(FramePoolTest, RecyclesWithinASizeClass) {
  // Warm the pool, then check same-class round trips hand back the block.
  void* a = FramePool::allocate(100);
  FramePool::deallocate(a, 100);
  void* b = FramePool::allocate(90);  // same 64-byte class as 100
  EXPECT_EQ(a, b);
  FramePool::deallocate(b, 90);
}

TEST(FramePoolTest, DistinctClassesDoNotAlias) {
  void* small = FramePool::allocate(64);
  void* large = FramePool::allocate(1024);
  EXPECT_NE(small, large);
  FramePool::deallocate(small, 64);
  FramePool::deallocate(large, 1024);
  // A 1 KiB request must not come back from the 64-byte list.
  void* again = FramePool::allocate(1024);
  EXPECT_EQ(again, large);
  FramePool::deallocate(again, 1024);
}

Task<int> add_one(int x) { co_return x + 1; }

Task<int> chain(int depth) {
  int total = 0;
  for (int i = 0; i < depth; ++i) total = co_await add_one(total);
  co_return total;
}

TEST(FramePoolTest, CoroutineFrameChurnStaysBalanced) {
  // Thousands of short-lived frames through the pooled operator new/delete;
  // LSan verifies at exit that every block made it back to the heap.
  for (int round = 0; round < 1000; ++round) {
    auto task = chain(8);
    task.resume();
    ASSERT_TRUE(task.done());
  }
}

}  // namespace
}  // namespace rtdb::sim
