#include "sim/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace rtdb::sim {
namespace {

TEST(RandomTest, SameSeedSameSequence) {
  RandomStream a{42};
  RandomStream b{42};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  RandomStream a{1};
  RandomStream b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RandomTest, DoubleInUnitInterval) {
  RandomStream r{7};
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, UniformIntRespectsBoundsAndCoversRange) {
  RandomStream r{11};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = r.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values appear in 1000 draws
}

TEST(RandomTest, UniformIntDegenerateRange) {
  RandomStream r{13};
  EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(RandomTest, UniformIntRoughlyUniform) {
  RandomStream r{17};
  constexpr int kBuckets = 10;
  constexpr int kDraws = 100000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[r.uniform_int(0, kBuckets - 1)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RandomTest, ExponentialMeanConverges) {
  RandomStream r{23};
  constexpr int kDraws = 200000;
  double sum = 0;
  for (int i = 0; i < kDraws; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / kDraws, 4.0, 0.05);
}

TEST(RandomTest, ExponentialDurationPositive) {
  RandomStream r{29};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.exponential_duration(Duration::units(10)), Duration::zero());
  }
}

TEST(RandomTest, BernoulliProportion) {
  RandomStream r{31};
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
  RandomStream r2{37};
  EXPECT_FALSE(r2.bernoulli(0.0));
}

TEST(RandomTest, SampleWithoutReplacementIsDistinctAndInRange) {
  RandomStream r{41};
  for (int trial = 0; trial < 50; ++trial) {
    auto sample = r.sample_without_replacement(100, 20);
    ASSERT_EQ(sample.size(), 20u);
    std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (auto v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RandomTest, SampleFullPopulationIsPermutation) {
  RandomStream r{43};
  auto sample = r.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

// Exact draws, recorded from the hash-map implementation this one
// replaced. Every workload's object sets come from this call, so any
// change to its outputs or to the uniform_int calls it makes moves every
// artifact. Two draws per stream check that the stream advances the same.
TEST(RandomTest, SampleWithoutReplacementPinnedOutputs) {
  struct Case {
    std::uint64_t seed;
    std::uint32_t n;
    std::uint32_t k;
    std::vector<std::uint32_t> first;
    std::vector<std::uint32_t> second;
  };
  const Case cases[] = {
      {1, 200, 12,
       {157, 11, 142, 8, 103, 102, 194, 196, 105, 132, 31, 54},
       {1, 72, 11, 173, 47, 181, 174, 98, 89, 153, 117, 187}},
      {7, 200, 20,
       {194, 81, 188, 166, 136, 91, 4, 185, 168, 134,
        113, 72, 7, 86, 13, 128, 167, 95, 183, 149},
       {185, 73, 119, 23, 82, 134, 91, 2, 83, 24,
        12, 79, 9, 199, 174, 113, 62, 47, 108, 81}},
      {3, 10, 10, {8, 2, 3, 1, 6, 7, 0, 9, 5, 4}, {2, 5, 9, 6, 3, 8, 1, 7, 4, 0}},
      {5, 640, 8,
       {105, 46, 570, 129, 521, 215, 113, 233},
       {633, 401, 355, 481, 386, 281, 29, 175}},
  };
  for (const Case& c : cases) {
    RandomStream r{c.seed};
    EXPECT_EQ(r.sample_without_replacement(c.n, c.k), c.first)
        << "seed " << c.seed << " n " << c.n << " k " << c.k;
    EXPECT_EQ(r.sample_without_replacement(c.n, c.k), c.second)
        << "seed " << c.seed << " n " << c.n << " k " << c.k;
  }
}

TEST(RandomTest, SampleCoversPopulationUniformly) {
  RandomStream r{47};
  int counts[10] = {};
  for (int trial = 0; trial < 10000; ++trial) {
    for (auto v : r.sample_without_replacement(10, 3)) ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 3000, 300);
  }
}

TEST(RandomTest, ForkIsIndependentOfParentDraws) {
  RandomStream a{99};
  RandomStream b{99};
  (void)a.next_u64();  // advance parent a only
  RandomStream fa = a.fork(5);
  RandomStream fb = b.fork(5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fa.next_u64(), fb.next_u64());
  }
}

TEST(RandomTest, ForksWithDifferentIdsDiffer) {
  RandomStream a{99};
  RandomStream f1 = a.fork(1);
  RandomStream f2 = a.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace rtdb::sim
