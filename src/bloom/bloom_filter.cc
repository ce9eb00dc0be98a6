#include "bloom/bloom_filter.h"

#include <cassert>
#include <cmath>

namespace flower {

BloomFilter::BloomFilter(size_t num_bits, int num_hashes)
    : num_bits_(num_bits),
      num_hashes_(num_hashes),
      bits_((num_bits + 63) / 64, 0) {
  assert(num_bits > 0);
  assert(num_hashes > 0);
}

void BloomFilter::Add(uint64_t key) {
  const Hash h = HashOf(key);
  for (int i = 0; i < num_hashes_; ++i) {
    const size_t p = Position(h, i);
    bits_[p / 64] |= (1ULL << (p % 64));
  }
  ++insertions_;
}

void BloomFilter::Clear() {
  for (auto& w : bits_) w = 0;
  insertions_ = 0;
}

void BloomFilter::UnionWith(const BloomFilter& other) {
  assert(other.num_bits_ == num_bits_);
  assert(other.num_hashes_ == num_hashes_);
  for (size_t i = 0; i < bits_.size(); ++i) bits_[i] |= other.bits_[i];
  insertions_ += other.insertions_;
}

size_t BloomFilter::CountSetBits() const {
  size_t count = 0;
  for (uint64_t w : bits_) count += static_cast<size_t>(__builtin_popcountll(w));
  return count;
}

double BloomFilter::EstimatedFpRate() const {
  double k = static_cast<double>(num_hashes_);
  double n = static_cast<double>(insertions_);
  double m = static_cast<double>(num_bits_);
  return std::pow(1.0 - std::exp(-k * n / m), k);
}

}  // namespace flower
