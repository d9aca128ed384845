#pragma once

#include <cstddef>
#include <new>

namespace rtdb::sim {

// Thread-local size-bucketed free lists for coroutine frames (and other
// small same-thread allocations on the simulator hot path). A frame churns
// for every co_await'd call — one per data-object access, lock request, and
// message send — so recycling frames of the same size class beats the
// general-purpose allocator and keeps the memory cache-warm.
//
// Blocks join the free list of the thread that releases them, so no
// synchronization is needed. Each simulated System lives on exactly one
// experiment worker thread, where allocate/deallocate pairs stay
// thread-local. The thread backend's lock table (rt/lock_table.hpp) runs
// its kernel from whichever thread holds its latch, so there a frame may
// be freed on a different thread from the one that allocated it — always
// under the latch — and the block moves to the freeing thread's list.
// Every cached block is returned to the global heap when its thread's
// cache is destroyed, keeping ASan/LSan clean.
class FramePool {
  struct Node {
    Node* next;
  };

  // Size classes in 64-byte granules up to 2 KiB; larger requests (rare:
  // deeply-nested frames with big locals) bypass the pool.
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;

  struct Cache {
    Node* free[kClasses] = {};
    ~Cache() {
      for (Node* node : free) {
        while (node != nullptr) {
          Node* next = node->next;
          ::operator delete(node);
          node = next;
        }
      }
    }
  };

  static Cache& cache() {
    static thread_local Cache tls;
    return tls;
  }

  static std::size_t class_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }

 public:
  static void* allocate(std::size_t bytes) {
    const std::size_t idx = class_of(bytes);
    if (idx >= kClasses) return ::operator new(bytes);
    Cache& c = cache();
    if (Node* node = c.free[idx]) {
      c.free[idx] = node->next;
      return node;
    }
    return ::operator new((idx + 1) * kGranule);
  }

  static void deallocate(void* p, std::size_t bytes) noexcept {
    if (p == nullptr) return;
    const std::size_t idx = class_of(bytes);
    if (idx >= kClasses) {
      ::operator delete(p);
      return;
    }
    Cache& c = cache();
    Node* node = static_cast<Node*>(p);
    node->next = c.free[idx];
    c.free[idx] = node;
  }
};

}  // namespace rtdb::sim
