// Replacement-policy selection for the keyed eviction engine
// (src/cache/keyed_store.h).
//
// The paper's content peers "keep every object they retrieve" (Sec 4) and
// its directory peers index their whole overlay; real CDN edges operate
// under storage pressure on both. Every bounded store in the system —
// ContentStore (peer caches) and DirectoryStore (directory index entries)
// — picks its victims by the rank order this enum selects (KeyedStore
// keeps each resident's rank beside it), so experiments can ablate
// replacement strategies without touching the protocol code.
//
// All policies are fully deterministic: victim choice never draws from an
// Rng, so enabling a bounded store perturbs no RNG stream anywhere in the
// simulation (runs stay reproducible under `seed`).
#ifndef FLOWERCDN_CACHE_EVICTION_POLICY_H_
#define FLOWERCDN_CACHE_EVICTION_POLICY_H_

#include <string>

#include "common/status.h"
#include "common/types.h"

namespace flower {

enum class CachePolicy : uint8_t {
  kUnbounded = 0,  // keep everything (the paper's behavior; the default)
  kLru,            // evict the least recently used entry
  kLfu,            // evict the least frequently used entry (LRU tie-break)
  kGdsf,           // Greedy-Dual-Size-Frequency (size-aware, Cherkasova 98)
};

const char* CachePolicyName(CachePolicy policy);

/// Parses "unbounded" | "lru" | "lfu" | "gdsf" (as used by the
/// `cache_policy` and `directory_index_policy` config keys).
Result<CachePolicy> ParseCachePolicy(const std::string& name);

}  // namespace flower

#endif  // FLOWERCDN_CACHE_EVICTION_POLICY_H_
