#include "sim/random.hpp"

#include <cassert>
#include <cmath>

#include "sim/inline_vec.hpp"

namespace rtdb::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

RandomStream::RandomStream(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : state_) s = splitmix64(sm);
}

std::uint64_t RandomStream::next_u64() {
  // xoshiro256**
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double RandomStream::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t RandomStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling for an unbiased draw.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double RandomStream::uniform_real(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * next_double();
}

double RandomStream::exponential(double mean) {
  assert(mean > 0);
  // Inverse transform; 1 - u is in (0, 1] so the log is finite.
  return -mean * std::log(1.0 - next_double());
}

Duration RandomStream::exponential_duration(Duration mean) {
  assert(mean > Duration::zero());
  return Duration::from_units(exponential(mean.as_units()));
}

bool RandomStream::bernoulli(double p) {
  assert(p >= 0.0 && p <= 1.0);
  return next_double() < p;
}

std::vector<std::uint32_t> RandomStream::sample_without_replacement(
    std::uint32_t n, std::uint32_t k) {
  assert(k <= n);
  // Partial Fisher-Yates over a sparse view of {0..n-1}: position p holds p
  // unless `displaced` says otherwise. Each step displaces at most one
  // position and k is a transaction's size, so a flat list searched
  // linearly does the job of a hash map: O(k) space, O(k^2) compares, and
  // no allocation beyond the result while k <= 32.
  struct Displaced {
    std::uint32_t position;
    std::uint32_t value;
  };
  InlineVec<Displaced, 32> displaced;
  auto find = [&](std::uint32_t position) -> Displaced* {
    for (Displaced& d : displaced) {
      if (d.position == position) return &d;
    }
    return nullptr;
  };
  std::vector<std::uint32_t> result;
  result.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::uint32_t>(
        uniform_int(i, static_cast<std::int64_t>(n) - 1));
    Displaced* at_j = find(j);
    const Displaced* at_i = find(i);
    result.push_back(at_j != nullptr ? at_j->value : j);
    const std::uint32_t moved = at_i != nullptr ? at_i->value : i;
    if (at_j != nullptr) {
      at_j->value = moved;
    } else {
      displaced.push_back(Displaced{j, moved});
    }
  }
  return result;
}

RandomStream RandomStream::fork(std::uint64_t stream_id) const {
  std::uint64_t mix = seed_ ^ (stream_id * 0x9e3779b97f4a7c15ull + 0x1234567);
  return RandomStream{splitmix64(mix)};
}

ZipfDistribution::ZipfDistribution(std::uint32_t n, double theta)
    : theta_(theta) {
  assert(n >= 1);
  assert(theta >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (std::uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_[n - 1] = 1.0;  // exact, despite rounding
}

std::uint32_t ZipfDistribution::sample(RandomStream& rng) const {
  const double u = rng.next_double();  // in [0, 1)
  // First rank whose CDF exceeds u; binary search keeps sampling O(log n).
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(cdf_.size()) - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double ZipfDistribution::mass(std::uint32_t rank) const {
  assert(rank < cdf_.size());
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

}  // namespace rtdb::sim
