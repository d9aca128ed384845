#include "host_speed.hpp"

#include "harness.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kObjects = 1u << 14;  // a power of two
constexpr std::uint64_t kOwnerKeys = 1u << 12;
constexpr std::uint32_t kPendingEvents = 256;
constexpr int kEventsPerBlock = 1600;
constexpr int kMultipliesPerBlock = 300'000;

}  // namespace

HostReference::HostReference() : versions_(kObjects) {
  for (std::uint64_t key = 0; key < kOwnerKeys; ++key) owners_.emplace(key, 0);
  for (std::uint32_t id = 0; id < kPendingEvents; ++id) {
    events_.push({static_cast<std::int64_t>(next() % 1000), id});
  }
}

std::uint64_t HostReference::next() {
  // splitmix64
  std::uint64_t z = (rng_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void HostReference::run_block() {
  std::uint64_t sum = 0;
  for (int step = 0; step < kEventsPerBlock; ++step) {
    const auto [time, id] = events_.top();
    events_.pop();
    std::vector<std::uint32_t> touched(1 + next() % 8);
    for (std::uint32_t& object : touched) {
      object = static_cast<std::uint32_t>(next() & (kObjects - 1));
      versions_[object] += id;
    }
    const std::function<void()> body = [this, &touched, &sum] {
      for (const std::uint32_t object : touched) sum += versions_[object];
    };
    body();
    owners_.find(next() % kOwnerKeys)->second ^= id;
    events_.push({time + 1 + static_cast<std::int64_t>(next() % 1000), id});
  }
  std::uint64_t x = sum | 1;
  for (int i = 0; i < kMultipliesPerBlock; ++i) {
    x = x * 6364136223846793005ULL + static_cast<std::uint64_t>(i % 7);
  }
  checksum_ += x;
}

double slowness(const std::vector<double>& block_seconds) {
  if (block_seconds.empty()) return 1.0;
  return median(block_seconds) / HostReference::kNominalBlockSeconds;
}

}  // namespace perfbench
