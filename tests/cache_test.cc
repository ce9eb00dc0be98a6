// Unit tests for the bounded peer storage (src/cache/): byte accounting,
// per-policy victim choice, admission control, and config plumbing, plus
// a differential test of KeyedStore against node-based reference
// policies.
#include "cache/content_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/interner.h"
#include "common/rng.h"

namespace flower {
namespace {

TEST(CachePolicyTest, ParseRoundTrips) {
  for (CachePolicy p : {CachePolicy::kUnbounded, CachePolicy::kLru,
                        CachePolicy::kLfu, CachePolicy::kGdsf}) {
    Result<CachePolicy> parsed = ParseCachePolicy(CachePolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), p);
  }
}

TEST(CachePolicyTest, ParseRejectsUnknown) {
  Result<CachePolicy> r = ParseCachePolicy("arc");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(CachePolicyTest, ConfigKeysApply) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_policy", "gdsf").ok());
  ASSERT_TRUE(c.Apply("cache_capacity_bytes", "65536").ok());
  ASSERT_TRUE(c.Apply("object_size_distribution", "pareto").ok());
  EXPECT_EQ(c.cache_policy, "gdsf");
  EXPECT_EQ(c.cache_capacity_bytes, 65536u);
  EXPECT_EQ(c.object_size_distribution, "pareto");
  ContentStore store = ContentStore::FromConfig(c);
  EXPECT_EQ(store.policy(), CachePolicy::kGdsf);
  EXPECT_EQ(store.capacity_bytes(), 65536u);
}

TEST(CachePolicyTest, ConfigRejectsBadValues) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("cache_policy", "bogus").ok());
  EXPECT_FALSE(c.Apply("object_size_distribution", "paretoo").ok());
  EXPECT_EQ(c.cache_policy, "unbounded") << "a bad value must not stick";
  EXPECT_EQ(c.object_size_distribution, "fixed");
}

TEST(CachePolicyTest, GdsfInsertCostFollowsConfig) {
  SimConfig c;
  EXPECT_DOUBLE_EQ(GdsfInsertCost(c, 400), 1.0) << "uniform: always 1";
  ASSERT_TRUE(c.Apply("cache_cost", "distance").ok());
  EXPECT_DOUBLE_EQ(GdsfInsertCost(c, 400), 400.0);
  EXPECT_DOUBLE_EQ(GdsfInsertCost(c, 0), 1.0) << "floored at 1";
}

TEST(RefetchCostModelTest, EwmaSmoothingPinned) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_cost", "distance").ok());
  ASSERT_TRUE(c.Apply("cache_cost_ewma_alpha", "0.5").ok());
  RefetchCostModel model(c);
  EXPECT_DOUBLE_EQ(model.CostOf(7), 1.0) << "never observed";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 100), 100.0) << "first sample seeds";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 200), 150.0) << "0.5*200 + 0.5*100";
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 50), 100.0) << "0.5*50 + 0.5*150";
  EXPECT_DOUBLE_EQ(model.CostOf(7), 100.0) << "CostOf reads, no update";
  EXPECT_DOUBLE_EQ(model.OnFetch(8, 0), 1.0) << "samples floored at 1";
  EXPECT_DOUBLE_EQ(model.CostOf(9), 1.0) << "per-object state";
}

TEST(RefetchCostModelTest, AlphaOneIsLatestSample) {
  SimConfig c;
  ASSERT_TRUE(c.Apply("cache_cost", "distance").ok());
  ASSERT_TRUE(c.Apply("cache_cost_ewma_alpha", "1.0").ok());
  RefetchCostModel model(c);
  model.OnFetch(3, 400);
  EXPECT_DOUBLE_EQ(model.OnFetch(3, 20), 20.0)
      << "alpha=1 reproduces the pre-EWMA single-sample cost";
}

TEST(RefetchCostModelTest, UniformStaysStateless) {
  SimConfig c;  // cache_cost=uniform default
  RefetchCostModel model(c);
  EXPECT_DOUBLE_EQ(model.OnFetch(7, 500), 1.0);
  EXPECT_DOUBLE_EQ(model.CostOf(7), 1.0);
}

TEST(RefetchCostModelTest, AlphaConfigValidated) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("cache_cost_ewma_alpha", "0").ok());
  EXPECT_FALSE(c.Apply("cache_cost_ewma_alpha", "1.5").ok());
  EXPECT_TRUE(c.Apply("cache_cost_ewma_alpha", "0.25").ok());
  EXPECT_DOUBLE_EQ(c.cache_cost_ewma_alpha, 0.25);
}

TEST(ContentStoreTest, CapacityAccounting) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.bounded());
  EXPECT_TRUE(store.Insert(1, 40));
  EXPECT_TRUE(store.Insert(2, 40));
  EXPECT_EQ(store.bytes_used(), 80u);
  EXPECT_EQ(store.size(), 2u);

  // 30 more bytes do not fit: the LRU victim (object 1) must go.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, 30, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_EQ(store.bytes_used(), 70u);
  EXPECT_FALSE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_EQ(store.stats().evictions, 1u);
  EXPECT_EQ(store.stats().bytes_evicted, 40u);
}

TEST(ContentStoreTest, EraseAndReinsertAccounting) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 60));
  EXPECT_TRUE(store.Erase(1));
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_FALSE(store.Erase(1));
  // Re-inserting a resident object must not double-count bytes.
  EXPECT_TRUE(store.Insert(2, 60));
  EXPECT_TRUE(store.Insert(2, 60));
  EXPECT_EQ(store.bytes_used(), 60u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().evictions, 0u) << "erase is not an eviction";
}

TEST(ContentStoreTest, LruEvictsLeastRecentlyUsed) {
  ContentStore store(CachePolicy::kLru, 30);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_TRUE(store.Insert(3, 10));
  store.TouchIfResident(1);  // 2 is now the least recently used
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_TRUE(store.Contains(1));
}

TEST(ContentStoreTest, LfuEvictsLeastFrequentlyUsed) {
  ContentStore store(CachePolicy::kLfu, 30);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_TRUE(store.Insert(3, 10));
  store.TouchIfResident(1);
  store.TouchIfResident(1);
  store.TouchIfResident(3);
  // Frequencies: 1 -> 3, 2 -> 1, 3 -> 2. Victim: 2.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
}

TEST(ContentStoreTest, LfuBreaksTiesTowardsOldest) {
  ContentStore store(CachePolicy::kLfu, 30);
  EXPECT_TRUE(store.Insert(5, 10));
  EXPECT_TRUE(store.Insert(6, 10));
  EXPECT_TRUE(store.Insert(7, 10));
  // All frequency 1: the stalest insert (5) goes first.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(8, 10, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 5u);
}

TEST(ContentStoreTest, GdsfPrefersLargeColdVictims) {
  ContentStore store(CachePolicy::kGdsf, 100);
  EXPECT_TRUE(store.Insert(1, 50));  // large, priority 1/50
  EXPECT_TRUE(store.Insert(2, 10));  // small, priority 1/10
  EXPECT_TRUE(store.Insert(3, 40));  // large, priority 1/40
  // Equal frequency: the largest object has the lowest priority.
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 30, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 1u);
  EXPECT_TRUE(store.Contains(2));
}

TEST(ContentStoreTest, GdsfFrequencyOutweighsSizeEventually) {
  ContentStore store(CachePolicy::kGdsf, 100);
  EXPECT_TRUE(store.Insert(1, 50));
  EXPECT_TRUE(store.Insert(2, 50));
  // Heat up the big object 1 far past 2: 1's priority 6/50 > 2's 1/50.
  for (int i = 0; i < 5; ++i) store.TouchIfResident(1);
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(3, 20, &evicted));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u) << "the cold same-size object must go first";
}

TEST(ContentStoreTest, UnboundedKeepsEverything) {
  ContentStore store(CachePolicy::kUnbounded, 0);
  EXPECT_FALSE(store.bounded());
  for (ObjectId id = 0; id < 1000; ++id) {
    EXPECT_TRUE(store.Insert(id, 1 << 20));
  }
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(ContentStoreTest, BoundedUnboundedPolicyRejectsOverflow) {
  // Unbounded policy + finite capacity: nothing may be evicted, so the
  // store fills and then turns newcomers away.
  ContentStore store(CachePolicy::kUnbounded, 20);
  EXPECT_TRUE(store.Insert(1, 10));
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_FALSE(store.Insert(3, 10));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.stats().admission_rejects, 1u);
}

TEST(ContentStoreTest, OversizedObjectRejected) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 50));
  std::vector<ObjectId> evicted;
  EXPECT_FALSE(store.Insert(2, 101, &evicted));
  EXPECT_TRUE(evicted.empty()) << "a hopeless insert must not evict anyone";
  EXPECT_TRUE(store.Contains(1));
  EXPECT_EQ(store.stats().admission_rejects, 1u);
}

TEST(ContentStoreTest, AdmissionHookFilters) {
  ContentStore store(CachePolicy::kLru, 100);
  store.set_admission_hook(
      [](ObjectId id, uint64_t) { return id % 2 == 0; });
  EXPECT_TRUE(store.Insert(2, 10));
  EXPECT_FALSE(store.Insert(3, 10));
  EXPECT_EQ(store.stats().admission_rejects, 1u);
  EXPECT_FALSE(store.Contains(3));
}

TEST(ContentStoreTest, ObjectsIterateInIdOrder) {
  // Summary rebuilds and full pushes must see the same sorted iteration
  // order as the std::set the store replaced.
  ContentStore store(CachePolicy::kLfu, 0);
  EXPECT_TRUE(store.Insert(30, 1));
  EXPECT_TRUE(store.Insert(10, 1));
  EXPECT_TRUE(store.Insert(20, 1));
  std::vector<ObjectId> expected = {10, 20, 30};
  EXPECT_EQ(store.Objects(), expected);
  EXPECT_EQ(store.count(10), 1u);
  EXPECT_EQ(store.count(11), 0u);
}

TEST(ContentStoreTest, StatsCountHitsAndInsertions) {
  ContentStore store(CachePolicy::kLru, 0);
  EXPECT_TRUE(store.Insert(1, 10));
  store.TouchIfResident(1);
  store.TouchIfResident(1);
  store.TouchIfResident(99);  // absent: not a hit
  EXPECT_EQ(store.stats().insertions, 1u);
  EXPECT_EQ(store.stats().hits, 2u);
}

TEST(ContentStoreTest, GdsfDistanceCostProtectsFarFetchedObjects) {
  // Same size, same frequency: under plain GDSF the insertion order
  // decides; with a distance cost the cheap-to-refetch (nearby) object
  // must go first even though it was inserted later.
  ContentStore store(CachePolicy::kGdsf, 100);
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(1, 50, &evicted, /*cost=*/400.0));  // far
  EXPECT_TRUE(store.Insert(2, 50, &evicted, /*cost=*/10.0));   // near
  EXPECT_TRUE(store.Insert(3, 40, &evicted, /*cost=*/10.0));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u) << "the near object is the cheaper loss";
  EXPECT_TRUE(store.Contains(1));
}

TEST(ContentStoreTest, UniformCostMatchesPlainGdsf) {
  // cost 1.0 multiplies the priority by exactly 1 (IEEE-exact), so the
  // default cost model cannot perturb plain-GDSF victim choice.
  ContentStore plain(CachePolicy::kGdsf, 100);
  ContentStore costed(CachePolicy::kGdsf, 100);
  for (ObjectId id = 1; id <= 3; ++id) {
    EXPECT_TRUE(plain.Insert(id, 30 + id));
    EXPECT_TRUE(costed.Insert(id, 30 + id, nullptr, 1.0));
  }
  plain.TouchIfResident(2);
  costed.TouchIfResident(2);
  std::vector<ObjectId> evicted_plain;
  std::vector<ObjectId> evicted_costed;
  EXPECT_TRUE(plain.Insert(9, 60, &evicted_plain));
  EXPECT_TRUE(costed.Insert(9, 60, &evicted_costed));
  EXPECT_EQ(evicted_plain, evicted_costed);
}

TEST(ContentStoreTest, ResizeAdjustsAccountingAndEvictsOnGrowth) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 40));
  EXPECT_TRUE(store.Insert(2, 40));
  std::vector<ObjectId> evicted;
  // Shrink: no evictions, accounting follows.
  EXPECT_TRUE(store.Resize(2, 20, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(store.bytes_used(), 60u);
  // Growth past capacity: the LRU victim (1) must go.
  EXPECT_TRUE(store.Resize(2, 70, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{1}));
  EXPECT_EQ(store.bytes_used(), 70u);
  EXPECT_EQ(store.stats().evictions, 1u);
  // Growth past the whole budget: the resized key itself is evicted.
  evicted.clear();
  EXPECT_FALSE(store.Resize(2, 101, &evicted));
  EXPECT_EQ(evicted, (std::vector<ObjectId>{2}));
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.bytes_used(), 0u);
  // Resizing an absent key reports failure without side effects.
  EXPECT_FALSE(store.Resize(7, 10, &evicted));
}

TEST(ContentStoreTest, MultiEvictionToFitOneLargeObject) {
  ContentStore store(CachePolicy::kLru, 100);
  EXPECT_TRUE(store.Insert(1, 30));
  EXPECT_TRUE(store.Insert(2, 30));
  EXPECT_TRUE(store.Insert(3, 30));
  std::vector<ObjectId> evicted;
  EXPECT_TRUE(store.Insert(4, 80, &evicted));
  // Fitting 80 into 100 leaves room for only 20: every 30-byte resident
  // must go, oldest first.
  std::vector<ObjectId> expected = {1, 2, 3};
  EXPECT_EQ(evicted, expected);
  EXPECT_EQ(store.bytes_used(), 80u);
  EXPECT_TRUE(store.Contains(4));
}

// --- Differential test: KeyedStore vs a node-based reference model ---------
//
// The reference keeps residency in a std::map and each policy's ranking in
// its own hash map plus ordered tree: the straightforward two-copy
// formulation KeyedStore's flat rank array must agree with, victim for
// victim.

namespace reference {

template <typename K>
class Policy {
 public:
  virtual ~Policy() = default;
  virtual void OnInsert(const K& key, uint64_t size_bytes, double cost) = 0;
  virtual void OnAccess(const K& key) = 0;
  virtual void OnResize(const K&, uint64_t) {}
  virtual void OnRemove(const K& key) = 0;
  virtual bool ChooseVictim(K* out) const = 0;
};

template <typename K>
class Lru : public Policy<K> {
 public:
  void OnInsert(const K& key, uint64_t, double) override { Stamp(key); }
  void OnAccess(const K& key) override { Stamp(key); }
  void OnRemove(const K& key) override {
    auto it = stamp_of_.find(key);
    if (it == stamp_of_.end()) return;
    by_stamp_.erase(it->second);
    stamp_of_.erase(it);
  }
  bool ChooseVictim(K* out) const override {
    if (by_stamp_.empty()) return false;
    *out = by_stamp_.begin()->second;
    return true;
  }

 private:
  void Stamp(const K& key) {
    auto it = stamp_of_.find(key);
    if (it != stamp_of_.end()) by_stamp_.erase(it->second);
    uint64_t stamp = ++clock_;
    stamp_of_[key] = stamp;
    by_stamp_[stamp] = key;
  }

  uint64_t clock_ = 0;
  std::unordered_map<K, uint64_t> stamp_of_;
  std::map<uint64_t, K> by_stamp_;
};

template <typename K>
class Lfu : public Policy<K> {
 public:
  void OnInsert(const K& key, uint64_t, double) override { Bump(key); }
  void OnAccess(const K& key) override { Bump(key); }
  void OnRemove(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.freq, it->second.stamp, key});
    state_of_.erase(it);
  }
  bool ChooseVictim(K* out) const override {
    if (ranked_.empty()) return false;
    *out = std::get<2>(*ranked_.begin());
    return true;
  }

 private:
  struct State {
    uint64_t freq = 0;
    uint64_t stamp = 0;
  };
  void Bump(const K& key) {
    State& s = state_of_[key];
    if (s.freq > 0) ranked_.erase({s.freq, s.stamp, key});
    ++s.freq;
    s.stamp = ++clock_;
    ranked_.insert({s.freq, s.stamp, key});
  }

  uint64_t clock_ = 0;
  std::unordered_map<K, State> state_of_;
  std::set<std::tuple<uint64_t, uint64_t, K>> ranked_;
};

template <typename K>
class Gdsf : public Policy<K> {
 public:
  void OnInsert(const K& key, uint64_t size_bytes, double cost) override {
    State& s = state_of_[key];
    s.freq = 1;
    s.size = size_bytes > 0 ? size_bytes : 1;
    s.cost = cost > 0 ? cost : 1.0;
    Rank(key, s);
  }
  void OnAccess(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.priority, key});
    ++it->second.freq;
    Rank(key, it->second);
  }
  void OnResize(const K& key, uint64_t size_bytes) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    ranked_.erase({it->second.priority, key});
    it->second.size = size_bytes > 0 ? size_bytes : 1;
    Rank(key, it->second);
  }
  void OnRemove(const K& key) override {
    auto it = state_of_.find(key);
    if (it == state_of_.end()) return;
    // L advances only when the removed key is the current minimum.
    if (!ranked_.empty() && ranked_.begin()->second == key) {
      inflation_ = it->second.priority;
    }
    ranked_.erase({it->second.priority, key});
    state_of_.erase(it);
  }
  bool ChooseVictim(K* out) const override {
    if (ranked_.empty()) return false;
    *out = ranked_.begin()->second;
    return true;
  }

 private:
  struct State {
    uint64_t freq = 0;
    uint64_t size = 1;
    double cost = 1.0;
    double priority = 0;
  };
  void Rank(const K& key, State& s) {
    s.priority = inflation_ + s.cost * static_cast<double>(s.freq) /
                                  static_cast<double>(s.size);
    ranked_.insert({s.priority, key});
  }

  double inflation_ = 0;
  std::unordered_map<K, State> state_of_;
  std::set<std::pair<double, K>> ranked_;
};

/// Residency, accounting and capacity rules of KeyedStore over a
/// std::map, delegating victim choice to a Policy (null = Unbounded).
template <typename K>
class Store {
 public:
  Store(CachePolicy policy, uint64_t capacity) : capacity_(capacity) {
    switch (policy) {
      case CachePolicy::kLru: policy_ = std::make_unique<Lru<K>>(); break;
      case CachePolicy::kLfu: policy_ = std::make_unique<Lfu<K>>(); break;
      case CachePolicy::kGdsf: policy_ = std::make_unique<Gdsf<K>>(); break;
      case CachePolicy::kUnbounded: break;
    }
  }

  void Touch(const K& key) {
    if (sizes_.count(key) == 0) return;
    ++stats_.hits;
    if (policy_) policy_->OnAccess(key);
  }

  bool Insert(const K& key, uint64_t size, std::vector<K>* evicted,
              double cost) {
    if (sizes_.count(key) != 0) {
      Touch(key);
      return true;
    }
    if (bounded()) {
      if (size + reserved_ > capacity_) {
        ++stats_.admission_rejects;
        return false;
      }
      while (bytes_used_ + size + reserved_ > capacity_) {
        K victim;
        if (!policy_ || !policy_->ChooseVictim(&victim)) {
          ++stats_.admission_rejects;
          return false;
        }
        Evict(victim, evicted);
      }
    }
    sizes_[key] = size;
    bytes_used_ += size;
    ++stats_.insertions;
    if (policy_) policy_->OnInsert(key, size, cost);
    return true;
  }

  bool Resize(const K& key, uint64_t new_size, std::vector<K>* evicted) {
    auto it = sizes_.find(key);
    if (it == sizes_.end()) return false;
    bytes_used_ = bytes_used_ - it->second + new_size;
    it->second = new_size;
    if (policy_) policy_->OnResize(key, new_size);
    if (!bounded()) return true;
    if (new_size + reserved_ > capacity_) {
      Evict(key, evicted);
      return false;
    }
    while (bytes_used_ + reserved_ > capacity_) {
      K victim;
      if (!policy_ || !policy_->ChooseVictim(&victim)) victim = key;
      Evict(victim, evicted);
      if (victim == key) return false;
    }
    return true;
  }

  bool Erase(const K& key) {
    auto it = sizes_.find(key);
    if (it == sizes_.end()) return false;
    bytes_used_ -= it->second;
    if (policy_) policy_->OnRemove(key);
    sizes_.erase(it);
    return true;
  }

  void SetReservedBytes(uint64_t bytes, std::vector<K>* evicted) {
    reserved_ = bytes;
    if (!bounded()) return;
    while (bytes_used_ + reserved_ > capacity_) {
      K victim;
      if (!policy_ || !policy_->ChooseVictim(&victim)) break;
      Evict(victim, evicted);
    }
  }

  std::vector<K> Keys() const {
    std::vector<K> keys;
    for (const auto& [key, size] : sizes_) keys.push_back(key);
    return keys;
  }
  uint64_t bytes_used() const { return bytes_used_; }
  const CacheStats& stats() const { return stats_; }

 private:
  bool bounded() const { return capacity_ > 0; }

  void Evict(const K& victim, std::vector<K>* evicted) {
    uint64_t size = sizes_.at(victim);
    bytes_used_ -= size;
    ++stats_.evictions;
    stats_.bytes_evicted += size;
    if (policy_) policy_->OnRemove(victim);
    sizes_.erase(victim);
    evicted->push_back(victim);
  }

  uint64_t capacity_;
  std::unique_ptr<Policy<K>> policy_;
  std::map<K, uint64_t> sizes_;
  uint64_t bytes_used_ = 0;
  uint64_t reserved_ = 0;
  CacheStats stats_;
};

}  // namespace reference

/// Drives one seeded random operation sequence through KeyedStore and
/// the reference model, asserting after every step that both evicted the
/// same keys in the same order, agree on the outcome, and hold the same
/// resident set and byte count.
template <typename K>
void RunDifferential(CachePolicy policy, uint64_t capacity, uint64_t seed) {
  SCOPED_TRACE(std::string(CachePolicyName(policy)) + " capacity=" +
               std::to_string(capacity) + " seed=" + std::to_string(seed));
  KeyedStore<K> store(policy, capacity);
  reference::Store<K> model(policy, capacity);
  Rng rng(seed);
  // Few distinct keys and sizes so touches, re-inserts, erases of
  // residents and equal GDSF priorities (the key tie-break) all recur.
  const int64_t kKeys = 48;
  const double kCosts[] = {1.0, 1.0, 2.5, 40.0, 0.0, 317.25};
  auto draw = [&rng](int64_t hi) {
    return static_cast<uint64_t>(rng.UniformInt(0, hi));
  };
  for (int step = 0; step < 4000; ++step) {
    const K key = static_cast<K>(draw(kKeys - 1) * 7 + 3);
    const uint64_t size = draw(64);
    std::vector<K> got;
    std::vector<K> want;
    const uint64_t op = draw(99);
    if (op < 45) {
      const double cost = kCosts[draw(5)];
      ASSERT_EQ(store.Insert(key, size, &got, cost),
                model.Insert(key, size, &want, cost))
          << "insert step " << step;
    } else if (op < 70) {
      store.TouchIfResident(key);
      model.Touch(key);
    } else if (op < 85) {
      // Occasionally past the whole budget (the hopeless-resize path).
      const uint64_t new_size = draw(capacity > 0 ? 140 : 64);
      ASSERT_EQ(store.Resize(key, new_size, &got),
                model.Resize(key, new_size, &want))
          << "resize step " << step;
    } else if (op < 97) {
      ASSERT_EQ(store.Erase(key), model.Erase(key)) << "erase step " << step;
    } else {
      const uint64_t reserved = draw(2) == 0 ? draw(150) : 0;
      store.SetReservedBytes(reserved, &got);
      model.SetReservedBytes(reserved, &want);
    }
    ASSERT_EQ(got, want) << "evictions differ at step " << step;
    ASSERT_EQ(store.Keys(), model.Keys()) << "residents differ at step "
                                          << step;
    ASSERT_EQ(store.bytes_used(), model.bytes_used()) << "step " << step;
  }
  EXPECT_EQ(store.stats().insertions, model.stats().insertions);
  EXPECT_EQ(store.stats().hits, model.stats().hits);
  EXPECT_EQ(store.stats().evictions, model.stats().evictions);
  EXPECT_EQ(store.stats().bytes_evicted, model.stats().bytes_evicted);
  EXPECT_EQ(store.stats().admission_rejects, model.stats().admission_rejects);
  if (capacity > 0 && policy != CachePolicy::kUnbounded) {
    EXPECT_GT(store.stats().evictions, 100u) << "sequence never evicted";
  }
}

template <typename K>
class KeyedStoreDifferentialTest : public ::testing::Test {};
using StoreKeys = ::testing::Types<ObjectId, PeerAddress>;
TYPED_TEST_SUITE(KeyedStoreDifferentialTest, StoreKeys);

TYPED_TEST(KeyedStoreDifferentialTest, MatchesNodeBasedReference) {
  for (CachePolicy policy : {CachePolicy::kUnbounded, CachePolicy::kLru,
                             CachePolicy::kLfu, CachePolicy::kGdsf}) {
    for (uint64_t capacity : {uint64_t{0}, uint64_t{120}, uint64_t{400}}) {
      for (uint64_t seed : {1, 2, 3}) {
        RunDifferential<TypeParam>(policy, capacity, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// --- Residency index ----------------------------------------------------------

// When the indexed store of a residency differential gets its index.
enum class IndexAttach {
  kFromStart,
  kWhenPopulated,  // IndexResidency on a store that already holds keys
  kThroughMove,    // the promotion path: moved out, moved in, re-indexed
};

/// Drives one seeded operation sequence through a store indexed by an
/// Interner and an unindexed twin. A third of the keys have no handle
/// (the fallback search). Return values, evictions, residents, Contains
/// on every key and stats() must be identical.
template <typename K>
void RunResidencyDifferential(CachePolicy policy, uint64_t capacity,
                              uint64_t seed, IndexAttach attach) {
  SCOPED_TRACE(std::string(CachePolicyName(policy)) + " capacity=" +
               std::to_string(capacity) + " seed=" + std::to_string(seed) +
               " attach=" + std::to_string(static_cast<int>(attach)));
  const uint64_t kKeys = 48;
  auto key_of = [](uint64_t d) { return static_cast<K>(d * 7 + 3); };
  std::vector<K> universe;
  for (uint64_t d = 0; d < kKeys; ++d) {
    if (d % 3 != 2) universe.push_back(key_of(d));
  }
  Interner<K> table;
  table.Build(universe);
  KeyedStore<K> plain(policy, capacity);
  KeyedStore<K> indexed(policy, capacity);
  if (attach != IndexAttach::kWhenPopulated) indexed.IndexResidency(&table);
  Rng rng(seed);
  const double kCosts[] = {1.0, 2.5, 40.0, 0.0};
  auto draw = [&rng](int64_t hi) {
    return static_cast<uint64_t>(rng.UniformInt(0, hi));
  };
  auto expect_same_residency = [&](int step) {
    ASSERT_EQ(indexed.Keys(), plain.Keys()) << "step " << step;
    ASSERT_EQ(indexed.bytes_used(), plain.bytes_used()) << "step " << step;
    for (uint64_t d = 0; d <= kKeys; ++d) {  // kKeys: never inserted
      ASSERT_EQ(indexed.Contains(key_of(d)), plain.Contains(key_of(d)))
          << "key " << key_of(d) << " step " << step;
    }
  };
  for (int step = 0; step < 3000; ++step) {
    if (step == 1000 && attach == IndexAttach::kWhenPopulated) {
      ASSERT_FALSE(indexed.empty());
      indexed.IndexResidency(&table);
      expect_same_residency(step);
    }
    if (step == 1000 && attach == IndexAttach::kThroughMove) {
      KeyedStore<K> in_flight(std::move(indexed));
      KeyedStore<K> successor(policy, capacity);
      successor.IndexResidency(&table);
      successor = std::move(in_flight);  // the index travels with it
      indexed = std::move(successor);
      expect_same_residency(step);
      indexed.IndexResidency(&table);
      expect_same_residency(step);
    }
    const K key = key_of(draw(kKeys - 1));
    const uint64_t size = draw(64);
    std::vector<K> got;
    std::vector<K> want;
    const uint64_t op = draw(99);
    if (op < 40) {
      const double cost = kCosts[draw(3)];
      ASSERT_EQ(indexed.Insert(key, size, &got, cost),
                plain.Insert(key, size, &want, cost))
          << "insert step " << step;
    } else if (op < 70) {
      ASSERT_EQ(indexed.TouchIfResident(key), plain.TouchIfResident(key))
          << "touch step " << step;
    } else if (op < 85) {
      const uint64_t new_size = draw(capacity > 0 ? 140 : 64);
      ASSERT_EQ(indexed.Resize(key, new_size, &got),
                plain.Resize(key, new_size, &want))
          << "resize step " << step;
    } else if (op < 97) {
      ASSERT_EQ(indexed.Erase(key), plain.Erase(key)) << "erase step " << step;
    } else {
      const uint64_t reserved = draw(2) == 0 ? draw(150) : 0;
      indexed.SetReservedBytes(reserved, &got);
      plain.SetReservedBytes(reserved, &want);
    }
    ASSERT_EQ(got, want) << "evictions differ at step " << step;
    if (step % 25 == 0) {
      expect_same_residency(step);
    } else {
      ASSERT_EQ(indexed.Keys(), plain.Keys()) << "step " << step;
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  expect_same_residency(3000);
  EXPECT_EQ(indexed.stats().insertions, plain.stats().insertions);
  EXPECT_EQ(indexed.stats().hits, plain.stats().hits);
  EXPECT_EQ(indexed.stats().evictions, plain.stats().evictions);
  EXPECT_EQ(indexed.stats().bytes_evicted, plain.stats().bytes_evicted);
  EXPECT_EQ(indexed.stats().admission_rejects,
            plain.stats().admission_rejects);
  EXPECT_GT(indexed.stats().hits, 20u) << "sequence rarely hit";
  if (capacity > 0 && policy != CachePolicy::kUnbounded) {
    EXPECT_GT(indexed.stats().evictions, 100u) << "sequence never evicted";
  }
}

template <typename K>
class KeyedStoreResidencyTest : public ::testing::Test {};
TYPED_TEST_SUITE(KeyedStoreResidencyTest, StoreKeys);

TYPED_TEST(KeyedStoreResidencyTest, IndexedMatchesUnindexed) {
  for (CachePolicy policy : {CachePolicy::kUnbounded, CachePolicy::kLru,
                             CachePolicy::kLfu, CachePolicy::kGdsf}) {
    for (uint64_t capacity : {uint64_t{0}, uint64_t{120}, uint64_t{400}}) {
      for (IndexAttach attach :
           {IndexAttach::kFromStart, IndexAttach::kWhenPopulated,
            IndexAttach::kThroughMove}) {
        for (uint64_t seed : {1, 2}) {
          RunResidencyDifferential<TypeParam>(policy, capacity, seed, attach);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// A promoted content peer's store is moved out; the moved-from store
// must answer from its (now empty) residents, not from a stale index.
TEST(KeyedStoreResidencyTest, MovedFromStoreFallsBackToSearch) {
  ObjectIdTable table;
  table.Build({10, 20, 30});
  ContentStore source;
  source.IndexResidency(&table);
  source.Insert(20, 1);
  ContentStore successor(std::move(source));
  EXPECT_TRUE(successor.Contains(20));
  EXPECT_FALSE(source.Contains(20));  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(source.TouchIfResident(20));
  EXPECT_TRUE(source.Insert(10, 1));
  EXPECT_TRUE(source.Contains(10));
  EXPECT_FALSE(source.Contains(20));
}

}  // namespace
}  // namespace flower
