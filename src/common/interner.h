// Flyweight handle tables: map a fixed universe of sparse integer values
// (64-bit object-id hashes) onto dense uint32 handles so per-peer
// containers and message payloads carry 4-byte slots instead of 8-byte
// ids.
//
// Determinism contract: handles are assigned in ASCENDING VALUE ORDER
// (Build sorts and dedups). That makes handle order isomorphic to value
// order — a sorted handle-keyed container iterates its members in
// exactly the order the value-keyed container it replaced did, so
// flyweighting a sorted map/set changes no iteration-dependent byte of
// output. This is why the table is built once from the full universe
// (a website's object catalog is static for a run) instead of interning
// incrementally: first-come handle assignment would break the
// isomorphism.
//
// Lookups are O(1): Build also lays an open-addressing index over the
// sorted values (power-of-two table at load <= 0.5, multiplicative hash,
// linear probing, each hit confirmed against the value). The index only
// finds handles; it never assigns them, so handle order is unchanged.
// The query path asks for an object's slot several times per hop, and a
// binary search there cost 4-5% of a sharded run (README, Performance).
//
// Wire-size accounting is unaffected by interning: messages that carry
// handles still charge the original id width (kObjectIdBits) in their
// SizeBits(), because the handle is an in-memory compression, not a
// protocol change.
#ifndef FLOWERCDN_COMMON_INTERNER_H_
#define FLOWERCDN_COMMON_INTERNER_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/types.h"

namespace flower {

template <typename T>
class Interner {
  static_assert(std::is_integral_v<T>, "the hashed index keys integers");

 public:
  using Handle = uint32_t;
  static constexpr Handle kInvalidHandle = 0xffffffffu;
  /// Multiplier of the bucket hash: a value lands in bucket
  /// (value * kHashMultiplier) >> (64 - log2(table size)). Odd (the
  /// 64-bit golden ratio), so the map is a bijection on 64-bit values.
  static constexpr uint64_t kHashMultiplier = 0x9e3779b97f4a7c15ull;

  Interner() = default;

  /// Builds the table from the value universe: sorts, dedups, and
  /// assigns handle h to the h-th smallest distinct value, then builds
  /// the hashed index. Replaces any previous contents.
  void Build(std::vector<T> values) {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    assert(values.size() < kInvalidHandle / 2);
    values_ = std::move(values);
    int bits = 1;
    while ((size_t{1} << bits) < 2 * values_.size()) ++bits;
    shift_ = 64 - bits;
    mask_ = (size_t{1} << bits) - 1;
    buckets_.assign(mask_ + 1, kInvalidHandle);
    for (Handle h = 0; h < values_.size(); ++h) {
      size_t b = Bucket(values_[h]);
      while (buckets_[b] != kInvalidHandle) b = (b + 1) & mask_;
      buckets_[b] = h;
    }
  }

  /// Dense handle of `value`, kInvalidHandle when it is not in the
  /// universe. O(1): probes until the value or an empty bucket.
  Handle HandleOf(const T& value) const {
    if (buckets_.empty()) return kInvalidHandle;  // never built
    for (size_t b = Bucket(value);; b = (b + 1) & mask_) {
      const Handle h = buckets_[b];
      if (h == kInvalidHandle || values_[h] == value) return h;
    }
  }

  /// Original value behind a handle. O(1).
  const T& ValueOf(Handle h) const {
    assert(h < values_.size());
    return values_[h];
  }

  bool Contains(const T& value) const {
    return HandleOf(value) != kInvalidHandle;
  }

  /// Number of distinct values (handles are exactly [0, size())).
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

 private:
  size_t Bucket(const T& value) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(value) * kHashMultiplier) >> shift_);
  }

  std::vector<T> values_;  // ascending; index == handle
  // Open-addressing index: bucket -> handle, kInvalidHandle when empty.
  std::vector<Handle> buckets_;
  int shift_ = 63;   // 64 - log2(buckets_.size())
  size_t mask_ = 0;  // buckets_.size() - 1
};

/// The object-id table of one website: ObjectId (Fnv1a64 of the object
/// URL) -> dense per-site slot. Slot order == id order within the site.
using ObjectIdTable = Interner<ObjectId>;

}  // namespace flower

#endif  // FLOWERCDN_COMMON_INTERNER_H_
