#include "core/peer_table.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/types.h"

namespace flower {
namespace {

struct FakePeer {
  explicit FakePeer(NodeId n) : id(n) {}
  NodeId id;
};

TEST(PeerTableTest, InsertFindTake) {
  PeerTable<FakePeer> table;
  EXPECT_TRUE(table.empty());
  FakePeer* a = table.Insert(7, std::make_unique<FakePeer>(7));
  FakePeer* b = table.Insert(3, std::make_unique<FakePeer>(3));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(7), a);
  EXPECT_EQ(table.Find(3), b);
  EXPECT_EQ(table.Find(99), nullptr);
  std::unique_ptr<FakePeer> out = table.Take(7);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out.get(), a);
  EXPECT_EQ(table.Find(7), nullptr);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Take(7), nullptr);
}

// The contract FlowerSystem leans on: raw Peer* handed to the network
// layer stay valid across arbitrary join/leave churn, even though slots
// compact via swap-with-last underneath.
TEST(PeerTableTest, PointersStableAcrossChurn) {
  PeerTable<FakePeer> table;
  std::vector<FakePeer*> raw(100);
  for (NodeId n = 0; n < 100; ++n) {
    raw[n] = table.Insert(n, std::make_unique<FakePeer>(n));
  }
  // Remove every third peer (forces many swap-with-last moves).
  for (NodeId n = 0; n < 100; n += 3) table.Take(n);
  for (NodeId n = 0; n < 100; ++n) {
    if (n % 3 == 0) {
      EXPECT_EQ(table.Find(n), nullptr);
    } else {
      ASSERT_EQ(table.Find(n), raw[n]) << "peer " << n << " moved";
      EXPECT_EQ(table.Find(n)->id, n);
    }
  }
}

// Dense-slot invariant: after any removal sequence the arrays hold
// exactly the live population, nodes()[i] matches at(i), and a node
// re-inserted after removal is reachable again.
TEST(PeerTableTest, SlotsStayDenseAndConsistentUnderChurn) {
  PeerTable<FakePeer> table;
  for (NodeId n = 0; n < 50; ++n) {
    table.Insert(n, std::make_unique<FakePeer>(n));
  }
  // Interleave removals and re-joins, including the last slot (no-swap
  // path) and slot 0 (max-distance swap).
  table.Take(49);
  table.Take(0);
  table.Take(25);
  table.Insert(0, std::make_unique<FakePeer>(0));
  table.Take(10);
  EXPECT_EQ(table.size(), 47u);
  std::vector<NodeId> seen;
  for (size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.at(i)->id, table.nodes()[i]);
    seen.push_back(table.nodes()[i]);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_TRUE(std::adjacent_find(seen.begin(), seen.end()) == seen.end());
  for (NodeId n : {49u, 25u, 10u}) {
    EXPECT_FALSE(table.Contains(n));
  }
  EXPECT_TRUE(table.Contains(0));
  // Every live node is findable through the index and agrees with its slot.
  for (NodeId n : seen) {
    FakePeer* p = table.Find(n);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->id, n);
  }
}

// The index is a vector over NodeIds: a node past its end, a slot never
// filled below it and a slot vacated by Take all read as vacant.
TEST(PeerTableTest, VacantAndOutOfRangeNodes) {
  PeerTable<FakePeer> table;
  EXPECT_EQ(table.Find(0), nullptr);  // empty index
  EXPECT_FALSE(table.Contains(0));
  EXPECT_EQ(table.Take(0), nullptr);
  table.Insert(5, std::make_unique<FakePeer>(5));
  for (NodeId n : {0u, 4u, 6u, 1'000'000u, kInvalidNode}) {
    EXPECT_EQ(table.Find(n), nullptr) << n;
    EXPECT_FALSE(table.Contains(n)) << n;
    EXPECT_EQ(table.Take(n), nullptr) << n;
  }
  EXPECT_EQ(table.size(), 1u);
  ASSERT_NE(table.Take(5), nullptr);
  EXPECT_FALSE(table.Contains(5));
  EXPECT_EQ(table.Find(5), nullptr);
  EXPECT_TRUE(table.empty());
}

// Take moves the last slot into the hole and re-points its index entry;
// a taken node re-inserts at the end with a fresh peer.
TEST(PeerTableTest, TakeSwapsLastIntoTheHoleAndReinserts) {
  PeerTable<FakePeer> table;
  std::vector<FakePeer*> raw;
  for (NodeId n : {10u, 20u, 30u, 40u}) {
    raw.push_back(table.Insert(n, std::make_unique<FakePeer>(n)));
  }
  std::unique_ptr<FakePeer> taken = table.Take(20);
  ASSERT_EQ(taken.get(), raw[1]);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_EQ(table.nodes()[1], 40u);  // the last slot filled the hole
  EXPECT_EQ(table.at(1), raw[3]);
  EXPECT_EQ(table.Find(40), raw[3]);
  EXPECT_EQ(table.Find(10), raw[0]);
  EXPECT_EQ(table.Find(30), raw[2]);
  // Taking the last slot moves nothing.
  ASSERT_EQ(table.Take(30).get(), raw[2]);
  EXPECT_EQ(table.nodes(), (std::vector<NodeId>{10, 40}));
  FakePeer* again = table.Insert(20, std::make_unique<FakePeer>(20));
  EXPECT_EQ(table.Find(20), again);
  EXPECT_EQ(table.nodes().back(), 20u);
  EXPECT_EQ(table.at(table.size() - 1), again);
  EXPECT_EQ(table.Find(40), raw[3]);
  EXPECT_FALSE(table.Contains(30));
}

}  // namespace
}  // namespace flower
