#include "bloom/bloom_filter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "bloom/summary.h"
#include "common/rng.h"

namespace flower {
namespace {

TEST(BloomFilterTest, EmptyContainsNothing) {
  BloomFilter f(1024, 5);
  for (uint64_t k = 0; k < 100; ++k) EXPECT_FALSE(f.MaybeContains(k));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  BloomFilter f(4000, 5);
  for (uint64_t k = 1000; k < 1500; ++k) f.Add(k);
  for (uint64_t k = 1000; k < 1500; ++k) {
    EXPECT_TRUE(f.MaybeContains(k)) << k;
  }
}

TEST(BloomFilterTest, ClearResets) {
  BloomFilter f(256, 3);
  f.Add(7);
  EXPECT_TRUE(f.MaybeContains(7));
  f.Clear();
  EXPECT_FALSE(f.MaybeContains(7));
  EXPECT_EQ(f.num_insertions(), 0u);
  EXPECT_EQ(f.CountSetBits(), 0u);
}

TEST(BloomFilterTest, UnionContainsBoth) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(1);
  b.Add(2);
  a.UnionWith(b);
  EXPECT_TRUE(a.MaybeContains(1));
  EXPECT_TRUE(a.MaybeContains(2));
}

TEST(BloomFilterTest, EqualityAfterSameInsertions) {
  BloomFilter a(512, 4), b(512, 4);
  a.Add(10);
  a.Add(20);
  b.Add(20);
  b.Add(10);
  EXPECT_TRUE(a == b);
}

// Pins the bit layout: the exact words double hashing produces for fixed
// keys, including geometries whose size is not a multiple of 64 and the
// minimum-capacity summary (1 object x 8 bits). A change to the hash pair,
// the position arithmetic or the word packing fails here, not only as a
// shifted simulation result.
struct LayoutCase {
  size_t num_bits;
  int num_hashes;
  int num_keys;
  std::vector<uint64_t> words;
};

TEST(BloomFilterTest, BitLayoutIsPinned) {
  const std::vector<LayoutCase> cases = {
      {4000, 5, 40, {
          0x0000002400010000ULL, 0x0011000810000080ULL, 0x0108001040000000ULL,
          0x0000000000040020ULL, 0x0400000040000000ULL, 0x0000001000052048ULL,
          0x0800000000002200ULL, 0x4000000000000100ULL, 0x000000800000040aULL,
          0x0400000000000000ULL, 0x200000010002a000ULL, 0x0000000000200000ULL,
          0x0040000000000800ULL, 0x0008000000000000ULL, 0x0020000200000c00ULL,
          0x0000048081000440ULL, 0x0000240000000000ULL, 0x0000004200200000ULL,
          0x0021000000200080ULL, 0x0800000000140400ULL, 0x0002000800100001ULL,
          0x0801200a00008004ULL, 0x0400004120000000ULL, 0x0000000000001000ULL,
          0x0000100080000020ULL, 0x0000001000000000ULL, 0x0080480040001000ULL,
          0x0001000000009004ULL, 0x0000000404010000ULL, 0x0005000000000000ULL,
          0x0400000000002000ULL, 0x0000040000000000ULL, 0x0000000000000800ULL,
          0x0400000000000008ULL, 0x0020100000402008ULL, 0xa000000000000000ULL,
          0x0000800020000000ULL, 0x0100040010000000ULL, 0x0000800000000001ULL,
          0x020000000a000000ULL, 0x0000000000000000ULL, 0x0000100000008000ULL,
          0x4000000000000802ULL, 0x0100040000080000ULL, 0x0201000000800800ULL,
          0x0000000000000000ULL, 0x0200000010000008ULL, 0x0000000002200000ULL,
          0x0000000002006000ULL, 0x0040200100080000ULL, 0x0040000001000040ULL,
          0x4102000180000a00ULL, 0x0080020082000000ULL, 0x0000000010000000ULL,
          0x0820004001000000ULL, 0x4600400000000000ULL, 0x0018000000008230ULL,
          0x0000060000120000ULL, 0x0000000220200008ULL, 0x0002000000000001ULL,
          0x0040008001000000ULL, 0x0000048000092400ULL, 0x0000000000080000ULL,
      }},
      {1000, 3, 20, {
          0x0000000000010000ULL, 0x0200000a00000084ULL, 0x6008011080000000ULL,
          0x0000100410004020ULL, 0x02000000400a0000ULL, 0x8a00000000000048ULL,
          0x0820010004002020ULL, 0x0000000000000100ULL, 0x0000028000000400ULL,
          0x0800000000000002ULL, 0x0004001002000000ULL, 0x0000020004000840ULL,
          0x0000000000000900ULL, 0x4008020100000000ULL, 0x0008000201200d00ULL,
          0x0000000080000000ULL,
      }},
      {8, 5, 1, {0x000000000000008fULL}},
  };
  for (const LayoutCase& c : cases) {
    BloomFilter f(c.num_bits, c.num_hashes);
    for (int i = 0; i < c.num_keys; ++i) {
      f.Add(1000003ULL * static_cast<uint64_t>(i) + 17);
    }
    EXPECT_EQ(f.words(), c.words)
        << "num_bits=" << c.num_bits << " k=" << c.num_hashes;
  }
}

// A pre-hashed probe answers exactly like the key probe, for present and
// absent keys alike, across geometries (one HashOf serves every summary).
TEST(BloomFilterTest, PreHashedProbeMatchesKeyProbe) {
  const std::vector<std::pair<size_t, int>> geometries = {
      {8, 5}, {1000, 3}, {4000, 5}, {4096, 7}, {12345, 4}};
  for (auto [num_bits, num_hashes] : geometries) {
    BloomFilter f(num_bits, num_hashes);
    for (uint64_t k = 0; k <= num_bits / 10; ++k) f.Add(Mix64(k));
    int positives = 0;
    for (uint64_t k = 0; k < 10000; ++k) {
      // Even k: an inserted key (for the small geometries, a repeat);
      // odd k: a key never inserted.
      const uint64_t key = (k % 2 == 0) ? Mix64((k / 2) % (num_bits / 10 + 1))
                                        : Mix64(k) ^ 0xA5A5ULL;
      const bool by_key = f.MaybeContains(key);
      ASSERT_EQ(f.MaybeContains(BloomFilter::HashOf(key)), by_key)
          << "num_bits=" << num_bits << " key=" << key;
      positives += by_key ? 1 : 0;
    }
    EXPECT_GE(positives, 5000);  // no false negatives on the even half
    if (num_bits > 8) {
      EXPECT_LT(positives, 10000);
    }
  }
}

// Property sweep across geometries: the empirical false-positive rate stays
// near (and not wildly above) the analytic (1 - e^{-kn/m})^k bound. The
// paper sizes summaries at 8 bits/object per Fan et al.
class BloomFpTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BloomFpTest, FalsePositiveRateNearAnalytic) {
  auto [bits_per_key, num_hashes, num_keys] = GetParam();
  BloomFilter f(static_cast<size_t>(bits_per_key * num_keys), num_hashes);
  for (int k = 0; k < num_keys; ++k) {
    f.Add(Mix64(static_cast<uint64_t>(k)));
  }
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) {
    uint64_t probe = Mix64(0xABCDEF00ULL + static_cast<uint64_t>(i));
    if (f.MaybeContains(probe)) ++fp;
  }
  double rate = static_cast<double>(fp) / probes;
  double analytic = f.EstimatedFpRate();
  EXPECT_LT(rate, analytic * 2 + 0.01)
      << "bits/key=" << bits_per_key << " k=" << num_hashes;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BloomFpTest,
    ::testing::Combine(::testing::Values(4, 8, 16),   // bits per key
                       ::testing::Values(3, 5, 7),    // hash functions
                       ::testing::Values(100, 500))); // keys

TEST(ContentSummaryTest, SizeMatchesPaperRule) {
  // Table 1: summary size = 8 * nb_objects bits.
  ContentSummary s(500, 8, 5);
  EXPECT_EQ(s.SizeBits(), 4000u);
}

TEST(ContentSummaryTest, RebuildReplacesContents) {
  ContentSummary s(100, 8, 5);
  s.Add(1);
  s.Rebuild({2, 3});
  EXPECT_FALSE(s.MaybeContains(1));
  EXPECT_TRUE(s.MaybeContains(2));
  EXPECT_TRUE(s.MaybeContains(3));
}

TEST(ContentSummaryTest, PreHashedProbeForwardsToFilter) {
  ContentSummary s(100, 8, 5);
  s.Add(7);
  EXPECT_TRUE(s.MaybeContains(BloomFilter::HashOf(7)));
  for (ObjectId id = 100; id < 200; ++id) {
    EXPECT_EQ(s.MaybeContains(BloomFilter::HashOf(id)), s.MaybeContains(id));
  }
}

TEST(ContentSummaryTest, MinimumCapacityIsSafe) {
  ContentSummary s(0, 8, 5);  // degenerate capacity clamps to 1 object
  s.Add(42);
  EXPECT_TRUE(s.MaybeContains(42));
}

}  // namespace
}  // namespace flower
