#include "common/interner.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/rng.h"
#include "common/types.h"

namespace flower {
namespace {

TEST(InternerTest, HandlesAreDenseAndValueOrdered) {
  Interner<uint64_t> table;
  table.Build({50, 10, 40, 20, 30});
  ASSERT_EQ(table.size(), 5u);
  // Handle h == rank of the value: ascending values, ascending handles.
  EXPECT_EQ(table.HandleOf(10), 0u);
  EXPECT_EQ(table.HandleOf(20), 1u);
  EXPECT_EQ(table.HandleOf(30), 2u);
  EXPECT_EQ(table.HandleOf(40), 3u);
  EXPECT_EQ(table.HandleOf(50), 4u);
}

TEST(InternerTest, RoundTrip) {
  Interner<uint64_t> table;
  table.Build({7, 3, 11});
  for (uint64_t v : {3u, 7u, 11u}) {
    EXPECT_EQ(table.ValueOf(table.HandleOf(v)), v);
  }
}

TEST(InternerTest, AbsentValuesGetInvalidHandle) {
  Interner<uint64_t> table;
  table.Build({10, 20});
  EXPECT_EQ(table.HandleOf(5), Interner<uint64_t>::kInvalidHandle);
  EXPECT_EQ(table.HandleOf(15), Interner<uint64_t>::kInvalidHandle);
  EXPECT_EQ(table.HandleOf(25), Interner<uint64_t>::kInvalidHandle);
  EXPECT_FALSE(table.Contains(15));
  EXPECT_TRUE(table.Contains(20));
}

TEST(InternerTest, BuildDedupsAndReplaces) {
  Interner<uint64_t> table;
  table.Build({5, 5, 5, 9, 9});
  EXPECT_EQ(table.size(), 2u);
  table.Build({1, 2, 3});
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.HandleOf(5), Interner<uint64_t>::kInvalidHandle);
  EXPECT_EQ(table.HandleOf(3), 2u);
}

TEST(InternerTest, EmptyUniverse) {
  Interner<uint64_t> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.HandleOf(1), Interner<uint64_t>::kInvalidHandle);
  table.Build({});
  EXPECT_EQ(table.size(), 0u);
}

// Reference semantics of HandleOf: the rank of `value` in the sorted,
// deduplicated universe, kInvalidHandle when absent.
uint32_t ReferenceHandle(const std::vector<uint64_t>& sorted, uint64_t value) {
  auto it = std::lower_bound(sorted.begin(), sorted.end(), value);
  if (it == sorted.end() || *it != value) {
    return Interner<uint64_t>::kInvalidHandle;
  }
  return static_cast<uint32_t>(it - sorted.begin());
}

std::vector<uint64_t> SortedUnique(std::vector<uint64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

// The hashed index must answer exactly like a binary search over the
// sorted universe, for members and for every probe outside it.
void ExpectMatchesReference(const Interner<uint64_t>& table,
                            const std::vector<uint64_t>& universe,
                            const std::vector<uint64_t>& probes) {
  const std::vector<uint64_t> sorted = SortedUnique(universe);
  ASSERT_EQ(table.size(), sorted.size());
  for (uint64_t v : universe) {
    ASSERT_EQ(table.HandleOf(v), ReferenceHandle(sorted, v)) << v;
  }
  for (uint64_t v : probes) {
    ASSERT_EQ(table.HandleOf(v), ReferenceHandle(sorted, v)) << v;
  }
}

TEST(InternerTest, HashedLookupMatchesLowerBoundOnRandomIds) {
  Rng gen(7);
  std::vector<uint64_t> ids(10'000);
  for (uint64_t& id : ids) id = gen.Next();
  ids.push_back(0);  // the extremes hash like any other value
  ids.push_back(~uint64_t{0});
  std::vector<uint64_t> foreign(10'000);
  for (uint64_t& id : foreign) id = gen.Next();
  // Neighbours of members: what a binary search distinguishes by order.
  for (size_t i = 0; i < 1000; ++i) {
    foreign.push_back(ids[i] + 1);
    foreign.push_back(ids[i] - 1);
  }
  Interner<uint64_t> table;
  table.Build(ids);
  ExpectMatchesReference(table, ids, foreign);
}

// Ids built so that value * kHashMultiplier shares its top 24 bits: all
// of them land in one bucket of any table up to 2^24 buckets, so every
// lookup walks the same probe chain (and wraps past the table's end).
TEST(InternerTest, HashedLookupMatchesLowerBoundOnCollidingIds) {
  // Inverse of the odd multiplier mod 2^64 (Newton: 6 steps double the
  // correct low bits from 3 to 192).
  uint64_t inverse = Interner<uint64_t>::kHashMultiplier;
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - Interner<uint64_t>::kHashMultiplier * inverse;
  }
  ASSERT_EQ(inverse * Interner<uint64_t>::kHashMultiplier, 1u);
  for (uint64_t top : {uint64_t{0}, ~uint64_t{0} >> 40 << 40}) {
    std::vector<uint64_t> ids;
    std::vector<uint64_t> foreign;
    for (uint64_t k = 0; k < 2000; ++k) {
      (k % 2 == 0 ? ids : foreign).push_back(inverse * (top | k));
    }
    Interner<uint64_t> table;
    table.Build(ids);
    ExpectMatchesReference(table, ids, foreign);
  }
}

TEST(InternerTest, EmptyTableFindsNothing) {
  const std::vector<uint64_t> probes = {0, 1, 42, ~uint64_t{0}};
  Interner<uint64_t> never_built;
  ExpectMatchesReference(never_built, {}, probes);
  Interner<uint64_t> built_empty;
  built_empty.Build({});
  ExpectMatchesReference(built_empty, {}, probes);
}

// A rebuild replaces the index with the new universe's: old members
// become foreign, and a smaller universe shrinks the table.
TEST(InternerTest, RebuildReplacesTheIndex) {
  Rng gen(11);
  std::vector<uint64_t> first(5000);
  for (uint64_t& id : first) id = gen.Next();
  std::vector<uint64_t> second(first.begin(), first.begin() + 100);
  for (int i = 0; i < 200; ++i) second.push_back(gen.Next());
  Interner<uint64_t> table;
  table.Build(first);
  ExpectMatchesReference(table, first, second);
  table.Build(second);
  ExpectMatchesReference(table, second, first);
  table.Build({});
  ExpectMatchesReference(table, {}, first);
}

// The production table keys object-id hashes (Fnv1a64 of object URLs).
// One million distinct URL ids must intern collision-free: every id
// gets its own handle, every handle round-trips, and handles stay
// isomorphic to id order — the property the determinism contract
// (sorted handle iteration == sorted id iteration) rests on.
TEST(InternerTest, MillionObjectIdsCollisionFree) {
  constexpr size_t kIds = 1'000'000;
  std::vector<ObjectId> ids;
  ids.reserve(kIds);
  for (size_t i = 0; i < kIds; ++i) {
    ids.push_back(Fnv1a64("site" + std::to_string(i % 997) + "/obj" +
                          std::to_string(i)));
  }
  ObjectIdTable table;
  table.Build(ids);  // copy: keep the original (unsorted) draw order
  ASSERT_EQ(table.size(), kIds) << "hash collision in the id universe";
  ObjectIdTable::Handle prev = 0;
  for (size_t i = 0; i < kIds; ++i) {
    const ObjectIdTable::Handle h = table.HandleOf(ids[i]);
    ASSERT_NE(h, ObjectIdTable::kInvalidHandle);
    ASSERT_EQ(table.ValueOf(h), ids[i]);
  }
  // Ascending handles enumerate ascending ids.
  for (ObjectIdTable::Handle h = 1; h < table.size(); ++h) {
    ASSERT_LT(table.ValueOf(h - 1), table.ValueOf(h));
    prev = h;
  }
  EXPECT_EQ(prev + 1, table.size());
}

}  // namespace
}  // namespace flower
