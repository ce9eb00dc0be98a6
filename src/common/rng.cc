#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace flower {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
  // Avoid the all-zero state (astronomically unlikely but cheap to guard).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  // Debiased modulo via rejection sampling.
  uint64_t limit = ~0ULL - (~0ULL % range);
  uint64_t v;
  do {
    v = Next();
  } while (v > limit);
  return lo + static_cast<int64_t>(v % range);
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) { return UniformDouble() < p; }

double Rng::Exponential(double mean) {
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

size_t Rng::Index(size_t n) {
  assert(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
}

std::vector<size_t> Rng::SampleIndices(size_t n, size_t count) {
  if (count >= n) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    Shuffle(&all);
    return all;
  }
  // Partial Fisher-Yates over an index map (sparse for small count).
  std::vector<size_t> picked;
  picked.reserve(count);
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;
  for (size_t i = 0; i < count; ++i) {
    size_t j = i + Index(n - i);
    std::swap(pool[i], pool[j]);
    picked.push_back(pool[i]);
  }
  return picked;
}

size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  assert(!weights.empty());
  double total = 0;
  for (double w : weights) total += w;
  assert(total > 0);
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace flower
