#pragma once

// The host's speed, gauged inside the benchmark's own process.
//
// On a shared host the simulator's speed moved by up to 2x between periods
// of a few minutes, with no change to the program: other guests contend for
// the physical cores and caches, and neither the wall clock nor the process
// CPU clock leaves that out. The benchmark therefore runs a fixed block of
// work between the cells it times and divides each host time by how much
// slower than nominal the blocks ran. Host times are reported in seconds of
// a nominal host, on which one block takes kNominalBlockSeconds. The block
// is the benchmark's own code, so no change to the program can change it.

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  // How long one block takes on the nominal host.
  static constexpr double kNominalBlockSeconds = 1e-3;

  HostReference();

  // Runs one block: a small discrete-event loop (a binary heap of timed
  // events, a hash-table update, a short-lived heap allocation and an
  // indirect call per event) and a dependent multiply chain, the kinds of
  // work the simulator does. Every block does the same amount of work, and
  // nothing it allocates outlives the block, so the blocks leave the heap
  // the program's cells run in as they found it.
  void run_block();

  // Folds in everything the blocks computed, so none of it can be elided.
  std::uint64_t checksum() const { return checksum_; }

 private:
  using Event = std::pair<std::int64_t, std::uint32_t>;  // (time, id)

  std::uint64_t next();

  std::uint64_t rng_ = 1;
  std::uint64_t checksum_ = 0;
  std::vector<std::uint64_t> versions_;
  std::unordered_map<std::uint64_t, std::uint32_t> owners_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
};

// How many times slower than nominal the host ran a set of blocks: the
// median block time over kNominalBlockSeconds (2 means half speed).
double slowness(const std::vector<double>& block_seconds);

}  // namespace perfbench
