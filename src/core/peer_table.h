// Dense per-lane peer tables: the structure-of-arrays registry behind
// FlowerSystem's peer bookkeeping, sized for 100k+ peer runs.
//
// The registry this replaces — one unordered_map<NodeId, unique_ptr<T>>
// per lane — pays a heap-allocated bucket node (~56 bytes) per peer and
// walks pointer-chased buckets on every harvest (churn, stats and
// background-traffic accounting iterate the whole population every
// period). Here the population lives in two parallel dense vectors:
//
//   nodes_[i]  - the NodeId occupying slot i            (hot: scanned)
//   peers_[i]  - owning pointer to that node's peer     (hot: scanned)
//   index_[n]  - slot of NodeId n, kVacant when none    (keyed lookups)
//
// Harvests stream the two arrays linearly and never touch the index;
// keyed lookups (two per submitted query) are one bounds check and one
// load. NodeIds are dense topology indices, so the index is a flat
// vector indexed by NodeId (4 bytes per topology node up to the largest
// id ever inserted) rather than a hash map, whose find cost 7.6% of a
// sharded run (README, Performance). Removal is swap-with-last, so slots
// stay dense under churn; the peers themselves sit behind unique_ptr, so
// raw Peer* handed to the network layer stay stable across slot moves.
// Slot order is NOT meaningful — every iteration the simulation observes
// is sorted by node id by the caller (see flower_system.cc), which is
// what keeps behavior independent of churn history and of this
// container's layout.
#ifndef FLOWERCDN_CORE_PEER_TABLE_H_
#define FLOWERCDN_CORE_PEER_TABLE_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"

namespace flower {

template <typename T>
class PeerTable {
 public:
  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  bool Contains(NodeId node) const { return SlotOf(node) != kVacant; }

  /// The peer registered at `node`, or nullptr.
  T* Find(NodeId node) const {
    const uint32_t i = SlotOf(node);
    return i == kVacant ? nullptr : peers_[i].get();
  }

  /// Registers `peer` at `node` (which must be vacant). Returns the raw
  /// pointer, which stays valid until Take() releases the peer.
  T* Insert(NodeId node, std::unique_ptr<T> peer) {
    assert(peer != nullptr);
    assert(node != kInvalidNode && "NodeIds index the topology");
    assert(!Contains(node) && "node already occupied");
    if (node >= index_.size()) index_.resize(size_t{node} + 1, kVacant);
    index_[node] = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back(node);
    peers_.push_back(std::move(peer));
    return peers_.back().get();
  }

  /// Releases ownership of the peer at `node` (nullptr when vacant).
  /// Swap-with-last keeps the arrays dense; other peers' raw pointers
  /// are unaffected.
  std::unique_ptr<T> Take(NodeId node) {
    const uint32_t i = SlotOf(node);
    if (i == kVacant) return nullptr;
    std::unique_ptr<T> out = std::move(peers_[i]);
    const uint32_t last = static_cast<uint32_t>(nodes_.size()) - 1;
    if (i != last) {
      nodes_[i] = nodes_[last];
      peers_[i] = std::move(peers_[last]);
      index_[nodes_[i]] = i;
    }
    nodes_.pop_back();
    peers_.pop_back();
    index_[node] = kVacant;
    return out;
  }

  /// Slot-indexed access for linear harvests (slot order is arbitrary;
  /// sort whatever you emit).
  const std::vector<NodeId>& nodes() const { return nodes_; }
  T* at(size_t i) const { return peers_[i].get(); }

 private:
  static constexpr uint32_t kVacant = 0xffffffffu;

  uint32_t SlotOf(NodeId node) const {
    return node < index_.size() ? index_[node] : kVacant;
  }

  std::vector<NodeId> nodes_;
  std::vector<std::unique_ptr<T>> peers_;
  std::vector<uint32_t> index_;
};

}  // namespace flower

#endif  // FLOWERCDN_CORE_PEER_TABLE_H_
