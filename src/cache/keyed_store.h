// The generic eviction engine behind every capacity-bounded map in the
// system: a byte-accounted store of Key -> size with a replacement
// policy (CachePolicy) and an optional admission hook.
//
// Two stores run on this engine today:
//  - ContentStore (content_store.h): ObjectId-keyed peer storage, the
//    bounded cache of content/directory/Squirrel peers;
//  - DirectoryStore (directory_store.h): PeerAddress-keyed directory
//    index entries, sized by entry footprint.
//
// Everything here is fully deterministic: victim choice never draws from
// an Rng, and with capacity 0 (unlimited) the engine is behaviorally a
// plain std::map (sorted iteration, no evictions), so unbounded runs
// reproduce the seed's RNG draws and metric values bit-identically.
//
// One representation: residents live in parallel sorted vectors — keys_,
// sizes_ and, on bounded stores with a ranking policy, ranks_ (each
// resident's eviction rank). ~12 bytes per resident when unranked (vs
// ~64 bytes per red-black-tree node): at 100k peers the per-peer content
// stores dominate RSS, so the resident set must cost bytes, not
// pointers. Iteration order (ascending keys) is identical to the map it
// replaced. Inserts/erases are O(n) memmoves and the victim is an O(n)
// scan for the lowest rank. On the perfbench workloads and the cache and
// directory-index ablation sweeps no store holds more than 100 residents
// (see README, Performance); bench_micro BM_KeyedStoreChurn puts the
// crossover with node-based policy maps between 128 and 512 residents
// for LRU and GDSF, and between 32 and 128 for LFU.
//
// Residency index: a store whose keys come from a fixed universe can be
// given that universe's Interner (IndexResidency). It then keeps one bit
// per handle, written only where a key enters (InsertAt) or leaves
// (RemoveAt) keys_, so Contains, TouchIfResident on unranked stores and
// the residency check of Insert are one hashed handle lookup plus a bit
// test, and absent keys are rejected before any search. A key with no
// handle (a foreign site's object routed into a directory's store) falls
// back to the binary search over keys_; the resident set, its order and
// every return value are the same as without the index.
#ifndef FLOWERCDN_CACHE_KEYED_STORE_H_
#define FLOWERCDN_CACHE_KEYED_STORE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "cache/eviction_policy.h"
#include "common/interner.h"

namespace flower {

/// Lifetime counters of one KeyedStore.
struct CacheStats {
  uint64_t insertions = 0;        // keys that became resident
  uint64_t hits = 0;              // accesses to resident keys
  uint64_t evictions = 0;         // victims removed for capacity
  uint64_t bytes_evicted = 0;
  uint64_t admission_rejects = 0; // inserts refused (hook, size, no victim)
};

/// The keyed eviction engine: residency, byte accounting, admission
/// control, capacity enforcement and victim choice.
///
/// Victim choice: the resident with the lowest rank under the policy's
/// strict total order goes first.
///  - LRU:  the stamp of the last insert or touch (a logical clock).
///  - LFU:  (frequency, stamp): least used, ties towards the oldest.
///  - GDSF: (priority, key), Greedy-Dual-Size-Frequency (Cherkasova
///    1998) with priority Pr(f) = L + cost(f) * freq(f) / size(f), where
///    the inflation clock L is set to the priority of the last victim.
///    Evicts low-frequency, large, cheaply-refetched objects first;
///    aging via L keeps formerly popular objects from squatting forever.
///    The cost term is 1 under `cache_cost=uniform` (plain GDSF) and the
///    measured provider->client latency under `cache_cost=distance`.
///  - Unbounded names no victim: on a full bounded store the newcomer is
///    turned away ("first come, stay forever"); with capacity 0 it
///    reproduces the paper exactly.
template <typename K>
class KeyedStore {
 public:
  /// Admission control: called before a non-resident key is inserted
  /// into a *bounded* store; returning false rejects the insert. (The
  /// capacity check still applies after admission.)
  using AdmissionHook = std::function<bool(const K& key, uint64_t size_bytes)>;

  /// capacity_bytes == 0 means unlimited storage. Only a bounded store
  /// with a ranking policy (LRU/LFU/GDSF) keeps ranks: an unlimited store
  /// never evicts, so it allocates no rank array.
  explicit KeyedStore(CachePolicy policy = CachePolicy::kUnbounded,
                      uint64_t capacity_bytes = 0)
      : policy_(policy), capacity_bytes_(capacity_bytes) {}

  KeyedStore(KeyedStore&&) = default;
  KeyedStore& operator=(KeyedStore&&) = default;

  // --- Residency --------------------------------------------------------------

  /// Indexes residency by the handles of `table` (non-null; see the file
  /// comment). Residents already present are indexed, so it may be
  /// called on a populated or moved-in store. `table` must outlive the
  /// store and not be rebuilt while indexed.
  void IndexResidency(const Interner<K>* table) {
    table_ = table;
    resident_bits_.assign((table->size() + 63) / 64, 0);
    for (const K& key : keys_) SetResidentBit(key, true);
  }

  bool Contains(const K& key) const {
    const Residency r = IndexedResidency(key);
    if (r != Residency::kUnknown) return r == Residency::kResident;
    return IndexOf(key) != kNpos;
  }

  /// std::set-compatible spelling (0 or 1), kept so call sites and tests
  /// read the same as with the old `std::set` state.
  size_t count(const K& key) const { return Contains(key) ? 1 : 0; }

  /// Records an access to `key` (recency/frequency rank) when it is
  /// resident; returns whether it was. One residency check: on an
  /// indexed unranked store a bit test, otherwise one search.
  bool TouchIfResident(const K& key) {
    const Residency r = IndexedResidency(key);
    if (r == Residency::kAbsent) return false;
    if (r == Residency::kResident && !ranked()) {
      ++stats_.hits;
      return true;
    }
    const size_t i = IndexOf(key);
    if (i == kNpos) return false;
    TouchAt(i);
    return true;
  }

  /// Makes `key` resident with the given size. Returns true if the key
  /// is resident afterwards. Victims evicted to make room are appended to
  /// `*evicted` (never containing `key` itself). Re-inserting a resident
  /// key counts as a Touch; a differing `size_bytes` is ignored (the
  /// original accounting stands — use Resize for mutable footprints). An
  /// insert is rejected — resident set unchanged — when the admission
  /// hook refuses it, when the key alone exceeds capacity, or when the
  /// policy cannot name a victim (Unbounded on a full bounded store).
  /// `cost` feeds the GDSF priority (1 = plain GDSF).
  bool Insert(const K& key, uint64_t size_bytes,
              std::vector<K>* evicted = nullptr, double cost = 1.0) {
    // One search serves both the residency check and the insert
    // position (shifted below as victims leave).
    const Residency known = IndexedResidency(key);
    if (known == Residency::kResident && !ranked()) {
      ++stats_.hits;
      return true;
    }
    size_t i = LowerBound(key);
    if (known != Residency::kAbsent && i < keys_.size() && !(key < keys_[i])) {
      TouchAt(i);
      return true;
    }
    if (bounded()) {
      if (size_bytes + reserved_bytes_ > capacity_bytes_) {
        ++stats_.admission_rejects;
        return false;
      }
      if (admission_hook_ && !admission_hook_(key, size_bytes)) {
        ++stats_.admission_rejects;
        return false;
      }
      while (bytes_used_ + size_bytes + reserved_bytes_ > capacity_bytes_) {
        size_t victim = VictimIndex();
        if (victim == kNpos) {
          // Unbounded on a full bounded store: nothing may leave, so the
          // newcomer is turned away instead.
          ++stats_.admission_rejects;
          return false;
        }
        Evict(victim, evicted, /*is_minimum=*/true);
        if (victim < i) --i;
      }
    }
    InsertAt(i, key, size_bytes);
    bytes_used_ += size_bytes;
    ++stats_.insertions;
    if (ranked()) {
      Rank& r = ranks_[i];
      r.stamp = ++clock_;
      r.freq = 1;
      r.cost = cost > 0 ? cost : 1.0;
      if (policy_ == CachePolicy::kGdsf) r.priority = GdsfPriority(i);
    }
    return true;
  }

  /// Adjusts the accounted size of a resident key (directory index
  /// entries grow and shrink with their object lists). On growth past
  /// capacity, policy-chosen victims are evicted until the store fits;
  /// when the policy refuses to name one (Unbounded) or the resized key
  /// alone no longer fits, the resized key itself is evicted (and
  /// appended to `*evicted`). Returns true when `key` is still resident
  /// afterwards; false when it is absent or was evicted by the resize.
  bool Resize(const K& key, uint64_t new_size, std::vector<K>* evicted) {
    size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ = bytes_used_ - sizes_[i] + new_size;
    sizes_[i] = SizeRep(new_size);
    if (ranked() && policy_ == CachePolicy::kGdsf) {
      ranks_[i].priority = GdsfPriority(i);
    }
    if (!bounded()) return true;
    if (new_size + reserved_bytes_ > capacity_bytes_) {
      // Hopeless alone (mirrors Insert's oversized-object rejection):
      // only the grown key leaves — draining every other resident first
      // would wipe the store for an entry that can never fit.
      Evict(i, evicted, IsMinimum(i));
      return false;
    }
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_) {
      size_t victim = VictimIndex();
      if (victim == kNpos || victim == i) {
        Evict(i, evicted, victim == i);
        return false;
      }
      Evict(victim, evicted, /*is_minimum=*/true);
      if (victim < i) --i;
    }
    return true;
  }

  /// Explicitly removes a key (not counted as an eviction).
  bool Erase(const K& key) {
    size_t i = IndexOf(key);
    if (i == kNpos) return false;
    bytes_used_ -= sizes_[i];
    RemoveAt(i, IsMinimum(i));
    return true;
  }

  // --- Introspection ----------------------------------------------------------

  size_t size() const { return keys_.size(); }
  bool empty() const { return keys_.empty(); }
  uint64_t bytes_used() const { return bytes_used_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  bool bounded() const { return capacity_bytes_ > 0; }

  /// Carves `bytes` of the capacity budget out for out-of-band state
  /// the owner co-accounts with this store (the DirectoryStore charges
  /// its neighbor summaries here): residents may only use
  /// capacity - reserved bytes. Growing the reservation evicts
  /// policy-chosen victims until residents fit again (appended to
  /// `*evicted`); when the policy names none (Unbounded), the remaining
  /// residents stay — like Insert, the engine never force-drains an
  /// Unbounded store. Accounting-only on unbounded (capacity 0) stores.
  void SetReservedBytes(uint64_t bytes, std::vector<K>* evicted) {
    reserved_bytes_ = bytes;
    if (!bounded()) return;
    while (bytes_used_ + reserved_bytes_ > capacity_bytes_) {
      size_t victim = VictimIndex();
      if (victim == kNpos) break;
      Evict(victim, evicted, /*is_minimum=*/true);
    }
  }
  CachePolicy policy() const { return policy_; }
  const CacheStats& stats() const { return stats_; }

  /// Resident keys in ascending order (matches the iteration order of
  /// the std::set / std::map state this engine replaced).
  std::vector<K> Keys() const { return keys_; }

  /// Ascending-ordered view of (key, size_bytes) pairs, iterable like
  /// the std::map this engine once exposed (range-for with structured
  /// bindings, begin()/end(), std::advance). Pairs materialize by value
  /// on dereference; the view borrows the store, so it must not outlive
  /// it or span mutations.
  class EntryView {
   public:
    class const_iterator {
     public:
      using iterator_category = std::random_access_iterator_tag;
      using value_type = std::pair<K, uint64_t>;
      using difference_type = std::ptrdiff_t;
      /// operator-> support for a by-value dereference.
      struct ArrowProxy {
        value_type pair;
        const value_type* operator->() const { return &pair; }
      };
      using pointer = ArrowProxy;
      using reference = value_type;

      const_iterator(const KeyedStore* store, size_t i)
          : store_(store), i_(i) {}
      value_type operator*() const {
        return {store_->keys_[i_], store_->sizes_[i_]};
      }
      ArrowProxy operator->() const { return ArrowProxy{**this}; }
      const_iterator& operator++() {
        ++i_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator t = *this;
        ++i_;
        return t;
      }
      const_iterator& operator--() {
        --i_;
        return *this;
      }
      const_iterator& operator+=(difference_type d) {
        i_ = static_cast<size_t>(static_cast<difference_type>(i_) + d);
        return *this;
      }
      friend const_iterator operator+(const_iterator a, difference_type d) {
        a += d;
        return a;
      }
      friend difference_type operator-(const const_iterator& a,
                                       const const_iterator& b) {
        return static_cast<difference_type>(a.i_) -
               static_cast<difference_type>(b.i_);
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      const KeyedStore* store_;
      size_t i_;
    };

    explicit EntryView(const KeyedStore* store) : store_(store) {}
    const_iterator begin() const { return const_iterator(store_, 0); }
    const_iterator end() const {
      return const_iterator(store_, store_->keys_.size());
    }
    size_t size() const { return store_->keys_.size(); }
    bool empty() const { return store_->keys_.empty(); }

   private:
    const KeyedStore* store_;
  };

  /// key -> size_bytes pairs, ordered by key.
  EntryView entries() const { return EntryView(this); }

  void set_admission_hook(AdmissionHook hook) {
    admission_hook_ = std::move(hook);
  }

  /// Installs `hook` and returns the previously installed one, so scoped
  /// hooks (replica admission) can restore instead of clobbering.
  AdmissionHook swap_admission_hook(AdmissionHook hook) {
    AdmissionHook prev = std::move(admission_hook_);
    admission_hook_ = std::move(hook);
    return prev;
  }

  /// An admission hook refusing any insert that would leave `store`
  /// within `headroom` (a fraction of capacity) of its budget;
  /// `on_decline` is invoked per refusal. Shared by the replica-admission
  /// paths of content and directory peers so the budget rule cannot
  /// diverge between them. Only meaningful on bounded stores (unbounded
  /// stores never consult their hook).
  static AdmissionHook HeadroomHook(const KeyedStore* store, double headroom,
                                    std::function<void()> on_decline) {
    return [store, headroom, on_decline = std::move(on_decline)](
               const K& /*key*/, uint64_t size_bytes) {
      const double budget =
          static_cast<double>(store->capacity_bytes()) * (1.0 - headroom);
      if (static_cast<double>(store->bytes_used() + size_bytes) > budget) {
        if (on_decline) on_decline();
        return false;
      }
      return true;
    };
  }

 private:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  /// Accounted sizes are stored as u32 (4 bytes/resident instead of 8):
  /// every size in the system — object bytes, index-entry footprints —
  /// is far below 4 GiB. The assert guards the representation; the
  /// public API stays uint64_t.
  static uint32_t SizeRep(uint64_t size_bytes) {
    assert(size_bytes <= 0xffffffffull && "entry size exceeds u32 storage");
    return static_cast<uint32_t>(size_bytes);
  }

  /// Position of the first resident key not less than `key`.
  size_t LowerBound(const K& key) const {
    return static_cast<size_t>(
        std::lower_bound(keys_.begin(), keys_.end(), key) - keys_.begin());
  }

  /// Index of `key` in the sorted key vector, kNpos when absent.
  size_t IndexOf(const K& key) const {
    const size_t i = LowerBound(key);
    return i < keys_.size() && !(key < keys_[i]) ? i : kNpos;
  }

  /// What the residency index knows about `key`: kUnknown when the store
  /// is not indexed or `key` has no handle (the caller searches). An
  /// empty bitmap means "not indexed", which also covers a moved-from
  /// store (its bitmap moved away with its residents).
  enum class Residency : uint8_t { kAbsent, kResident, kUnknown };
  Residency IndexedResidency(const K& key) const {
    if (resident_bits_.empty()) return Residency::kUnknown;
    const typename Interner<K>::Handle h = table_->HandleOf(key);
    if (h == Interner<K>::kInvalidHandle) return Residency::kUnknown;
    return (resident_bits_[h >> 6] >> (h & 63)) & 1 ? Residency::kResident
                                                    : Residency::kAbsent;
  }

  void SetResidentBit(const K& key, bool resident) {
    if (resident_bits_.empty()) return;
    const typename Interner<K>::Handle h = table_->HandleOf(key);
    if (h == Interner<K>::kInvalidHandle) return;
    const uint64_t bit = uint64_t{1} << (h & 63);
    if (resident) {
      resident_bits_[h >> 6] |= bit;
    } else {
      resident_bits_[h >> 6] &= ~bit;
    }
  }

  /// One resident's eviction rank (see the class comment for each
  /// policy's order). Fields a policy does not order by stay unused.
  struct Rank {
    uint64_t stamp = 0;   // LRU, LFU: clock_ at the last insert/touch
    uint64_t freq = 0;    // LFU, GDSF: inserts + touches while resident
    double cost = 1.0;    // GDSF: retrieval cost
    double priority = 0;  // GDSF: inflation_ + cost * freq / size
  };

  /// True when this store keeps ranks_: bounded, with a policy that can
  /// name victims.
  bool ranked() const {
    return bounded() && policy_ != CachePolicy::kUnbounded;
  }

  /// GDSF priority of resident i at the current inflation clock (the
  /// same doubles, in the same order, as Cherkasova's formula).
  double GdsfPriority(size_t i) const {
    const Rank& r = ranks_[i];
    const uint32_t size = sizes_[i] > 0 ? sizes_[i] : 1;
    return inflation_ +
           r.cost * static_cast<double>(r.freq) / static_cast<double>(size);
  }

  void TouchAt(size_t i) {
    ++stats_.hits;
    if (!ranked()) return;
    Rank& r = ranks_[i];
    ++r.freq;
    r.stamp = ++clock_;
    if (policy_ == CachePolicy::kGdsf) r.priority = GdsfPriority(i);
  }

  /// Index of the lowest-ranked resident, kNpos when the store keeps no
  /// ranks (Unbounded policy or unlimited capacity) or is empty. Every
  /// order is strict, and GDSF's key tie-break falls out of scanning in
  /// ascending key order with a strict `<`.
  size_t VictimIndex() const {
    switch (policy_) {
      case CachePolicy::kLru:
        return ArgMin([](const Rank& a, const Rank& b) {
          return a.stamp < b.stamp;
        });
      case CachePolicy::kLfu:
        return ArgMin([](const Rank& a, const Rank& b) {
          return a.freq != b.freq ? a.freq < b.freq : a.stamp < b.stamp;
        });
      case CachePolicy::kGdsf:
        return ArgMin([](const Rank& a, const Rank& b) {
          return a.priority < b.priority;
        });
      case CachePolicy::kUnbounded:
        break;
    }
    return kNpos;
  }

  template <typename Less>
  size_t ArgMin(Less less) const {
    if (ranks_.empty()) return kNpos;
    size_t best = 0;
    for (size_t i = 1; i < ranks_.size(); ++i) {
      if (less(ranks_[i], ranks_[best])) best = i;
    }
    return best;
  }

  /// Whether resident i is the current victim. Only GDSF's inflation
  /// clock cares, so the scan is skipped for every other policy.
  bool IsMinimum(size_t i) const {
    return policy_ == CachePolicy::kGdsf && VictimIndex() == i;
  }

  /// Inserts a non-resident key at sorted position i (its LowerBound);
  /// the rank slot (if any) is left for the caller to fill.
  void InsertAt(size_t i, const K& key, uint64_t size_bytes) {
    const auto d = static_cast<std::ptrdiff_t>(i);
    keys_.insert(keys_.begin() + d, key);
    sizes_.insert(sizes_.begin() + d, SizeRep(size_bytes));
    if (ranked()) ranks_.insert(ranks_.begin() + d, Rank{});
    SetResidentBit(key, true);
  }

  /// Drops resident i from every parallel array. GDSF's inflation clock
  /// advances to the removed priority only when i held the minimum
  /// (`is_minimum`): aging belongs to *eviction*, and an explicit erase
  /// of a mid-priority entry must not raise L above surviving entries.
  void RemoveAt(size_t i, bool is_minimum) {
    const auto d = static_cast<std::ptrdiff_t>(i);
    if (ranked()) {
      if (is_minimum && policy_ == CachePolicy::kGdsf) {
        inflation_ = ranks_[i].priority;
      }
      ranks_.erase(ranks_.begin() + d);
    }
    SetResidentBit(keys_[i], false);
    keys_.erase(keys_.begin() + d);
    sizes_.erase(sizes_.begin() + d);
  }

  void Evict(size_t i, std::vector<K>* evicted, bool is_minimum) {
    const K victim = keys_[i];
    bytes_used_ -= sizes_[i];
    ++stats_.evictions;
    stats_.bytes_evicted += sizes_[i];
    RemoveAt(i, is_minimum);
    if (evicted != nullptr) evicted->push_back(victim);
  }

  CachePolicy policy_;
  uint64_t capacity_bytes_;
  // Flat sorted storage: keys_ ascending; sizes_ and ranks_ parallel
  // (key -> size_bytes, key -> eviction rank). ranks_ stays empty unless
  // ranked().
  std::vector<K> keys_;
  std::vector<uint32_t> sizes_;
  std::vector<Rank> ranks_;
  // Residency index (IndexResidency): one bit per table_ handle, set
  // while that key is in keys_; empty when the store is not indexed.
  const Interner<K>* table_ = nullptr;
  std::vector<uint64_t> resident_bits_;
  uint64_t clock_ = 0;      // LRU/LFU logical access clock
  double inflation_ = 0;    // GDSF inflation clock L
  uint64_t bytes_used_ = 0;
  uint64_t reserved_bytes_ = 0;  // capacity carved out (SetReservedBytes)
  CacheStats stats_;
  AdmissionHook admission_hook_;
};

}  // namespace flower

#endif  // FLOWERCDN_CACHE_KEYED_STORE_H_
