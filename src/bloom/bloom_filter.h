// Bloom filter used for content and directory summaries (Fan et al.,
// "Summary Cache", SIGCOMM 1998 — the paper's citation [9]).
#ifndef FLOWERCDN_BLOOM_BLOOM_FILTER_H_
#define FLOWERCDN_BLOOM_BLOOM_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace flower {

class BloomFilter {
 public:
  /// A key's double-hashing pair. It does not depend on the filter's
  /// geometry, so a query hashes its key once and probes every neighbor
  /// summary with the same pair.
  struct Hash {
    uint64_t h1;
    uint64_t h2;  // odd step
  };

  static Hash HashOf(uint64_t key) {
    return Hash{Mix64(key), Mix64(key ^ 0x5851f42d4c957f2dULL) | 1};
  }

  /// Creates a filter with `num_bits` bits and `num_hashes` hash functions.
  BloomFilter(size_t num_bits, int num_hashes);

  void Add(uint64_t key);

  /// True if the key *may* be present; false means definitely absent.
  bool MaybeContains(uint64_t key) const { return MaybeContains(HashOf(key)); }

  /// Same answer for a pre-hashed key; stops at the first clear bit.
  bool MaybeContains(const Hash& h) const {
    for (int i = 0; i < num_hashes_; ++i) {
      const size_t p = Position(h, i);
      if ((bits_[p / 64] & (1ULL << (p % 64))) == 0) return false;
    }
    return true;
  }

  void Clear();

  /// Bitwise union with another filter of identical geometry.
  void UnionWith(const BloomFilter& other);

  size_t num_bits() const { return num_bits_; }
  int num_hashes() const { return num_hashes_; }
  size_t CountSetBits() const;
  uint64_t num_insertions() const { return insertions_; }
  /// The bit array, 64 bits per word, bit p at words()[p / 64] bit p % 64.
  const std::vector<uint64_t>& words() const { return bits_; }

  /// Theoretical false-positive rate for the current insertion count:
  /// (1 - e^{-kn/m})^k.
  double EstimatedFpRate() const;

  bool operator==(const BloomFilter& other) const {
    return num_bits_ == other.num_bits_ && num_hashes_ == other.num_hashes_ &&
           bits_ == other.bits_;
  }

 private:
  // Double hashing: position_i = h1 + i * h2 (mod m).
  size_t Position(const Hash& h, int i) const {
    return static_cast<size_t>((h.h1 + static_cast<uint64_t>(i) * h.h2) %
                               num_bits_);
  }

  size_t num_bits_;
  int num_hashes_;
  std::vector<uint64_t> bits_;
  uint64_t insertions_ = 0;
};

}  // namespace flower

#endif  // FLOWERCDN_BLOOM_BLOOM_FILTER_H_
