#include "common/rng.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace flower {
namespace {

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.UniformInt(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(RngTest, UniformIntSingleValue) {
  Rng rng(7);
  EXPECT_EQ(rng.UniformInt(42, 42), 42);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsCentered) {
  Rng rng(13);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliRespectsP) {
  Rng rng(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, ExponentialNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.Exponential(10.0), 0.0);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(31);
  auto sample = rng.SampleIndices(100, 20);
  ASSERT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t s : sample) EXPECT_LT(s, 100u);
}

TEST(RngTest, SampleIndicesCountExceedsN) {
  Rng rng(37);
  auto sample = rng.SampleIndices(5, 50);
  ASSERT_EQ(sample.size(), 5u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, SampleIndicesZero) {
  Rng rng(41);
  EXPECT_TRUE(rng.SampleIndices(10, 0).empty());
}

TEST(RngTest, WeightedIndexFollowsWeights) {
  Rng rng(43);
  std::vector<double> weights = {1.0, 3.0};
  int hi = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.WeightedIndex(weights) == 1) ++hi;
  }
  EXPECT_NEAR(static_cast<double>(hi) / n, 0.75, 0.01);
}

TEST(RngTest, WeightedIndexZeroWeightNeverPicked) {
  Rng rng(47);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.WeightedIndex(weights), 1u);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(53);
  Rng child = a.Fork();
  // The fork must not replay the parent's stream.
  Rng b(53);
  b.Next();  // advance like the fork did
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(59);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(1), Mix64(2));
}

// Every derived RNG stream, Bloom bit position and object size hangs off
// these finalizers, so their exact values are pinned, not only their
// determinism.
TEST(RngTest, Mix64MatchesPinnedValues) {
  EXPECT_EQ(Mix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(Mix64(1), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(Mix64(42), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(Mix64(0xdeadbeefULL), 0x4adfb90f68c9eb9bULL);
  EXPECT_EQ(Mix64(~0ULL), 0xe4d971771b652c20ULL);
}

TEST(RngTest, SplitMix64MatchesPinnedSequence) {
  uint64_t state = 0;
  EXPECT_EQ(SplitMix64(&state), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(state, 0x9e3779b97f4a7c15ULL);
  EXPECT_EQ(SplitMix64(&state), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(state, 0x3c6ef372fe94f82aULL);
  EXPECT_EQ(SplitMix64(&state), 0x06c45d188009454fULL);
  EXPECT_EQ(state, 0xdaa66d2c7ddf743fULL);

  state = 42;
  EXPECT_EQ(SplitMix64(&state), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(SplitMix64(&state), 0x28efe333b266f103ULL);
  EXPECT_EQ(state, 0x3c6ef372fe94f854ULL);
}

}  // namespace
}  // namespace flower
