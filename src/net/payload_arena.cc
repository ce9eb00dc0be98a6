#include "net/payload_arena.h"

#include <cassert>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define FLOWER_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLOWER_ARENA_ASAN 1
#endif
#endif

#if defined(FLOWER_ARENA_ASAN)
#include <sanitizer/asan_interface.h>
#define FLOWER_POISON(addr, size) ASAN_POISON_MEMORY_REGION(addr, size)
#define FLOWER_UNPOISON(addr, size) ASAN_UNPOISON_MEMORY_REGION(addr, size)
#else
#define FLOWER_POISON(addr, size) ((void)(addr), (void)(size))
#define FLOWER_UNPOISON(addr, size) ((void)(addr), (void)(size))
#endif

namespace flower {
namespace {

class ThreadCache;

// Precedes every block (pooled or fallback). 16 bytes keeps the payload
// at max_align_t alignment behind slabs from ::operator new.
struct BlockHeader {
  ThreadCache* owner;  // nullptr: fallback block from ::operator new
  uint64_t bucket;     // bucket index (pooled blocks only)
};
static_assert(sizeof(BlockHeader) == 16, "payload alignment depends on this");
static_assert(alignof(std::max_align_t) <= 16, "header must not under-align");

// Payload capacities. Multiples of 16 so bump allocation preserves
// alignment; the ladder is dense at the bottom where message envelopes
// (a vtable pointer plus a handful of fields) actually land.
constexpr std::size_t kBucketBytes[] = {64, 128, 256, 512,
                                        PayloadArena::kMaxBlockBytes};
constexpr int kNumBuckets = sizeof(kBucketBytes) / sizeof(kBucketBytes[0]);
constexpr std::size_t kSlabBytes = 64 * 1024;

int BucketFor(std::size_t size) {
  for (int b = 0; b < kNumBuckets; ++b) {
    if (size <= kBucketBytes[b]) return b;
  }
  return -1;
}

char* PayloadOf(BlockHeader* h) { return reinterpret_cast<char*>(h + 1); }
BlockHeader* HeaderOf(void* payload) {
  return reinterpret_cast<BlockHeader*>(payload) - 1;
}

// A free block stores the freelist link in its first 8 payload bytes;
// under ASan the rest of the payload is poisoned while it waits.
void SetNext(BlockHeader* h, BlockHeader* next) {
  std::memcpy(PayloadOf(h), &next, sizeof(next));
}
BlockHeader* GetNext(BlockHeader* h) {
  BlockHeader* next;
  std::memcpy(&next, PayloadOf(h), sizeof(next));
  return next;
}

class ThreadCache {
 public:
  void* Allocate(std::size_t size) {
    DrainRemote();
    const int b = BucketFor(size);
    assert(b >= 0);
    BlockHeader* h = free_[b];
    if (h != nullptr) {
      free_[b] = GetNext(h);
      FLOWER_UNPOISON(PayloadOf(h), kBucketBytes[b]);
      ++stats_.recycled_blocks;
    } else {
      h = CarveBlock(b);
      ++stats_.fresh_blocks;
    }
    ++live_;
    h->owner = this;
    h->bucket = static_cast<uint64_t>(b);
    return PayloadOf(h);
  }

  // Free from the owning thread: straight freelist push.
  void FreeLocal(BlockHeader* h) {
    PushFree(h);
    --live_;
  }

  // Free from a foreign thread (cross-lane message destroyed at its
  // destination): park on the remote list for the owner to drain.
  void FreeRemote(BlockHeader* h) {
    std::lock_guard<std::mutex> lock(remote_mu_);
    SetNext(h, remote_head_);
    remote_head_ = h;
    const std::size_t cap = kBucketBytes[h->bucket];
    FLOWER_POISON(PayloadOf(h) + sizeof(void*), cap - sizeof(void*));
    ++remote_count_;
  }

  PayloadArena::Stats Snapshot() {
    DrainRemote();
    PayloadArena::Stats s = stats_;
    s.live_blocks = live_;
    s.slabs = slabs_.size();
    return s;
  }

  void Trim() {
    DrainRemote();
    if (live_ != 0) return;  // blocks still in flight: not a safe point
    for (int b = 0; b < kNumBuckets; ++b) free_[b] = nullptr;
    for (const auto& slab : slabs_) {
      FLOWER_UNPOISON(slab.get(), kSlabBytes);
    }
    slabs_.clear();
    bump_ = bump_end_ = nullptr;
  }

 private:
  void PushFree(BlockHeader* h) {
    const int b = static_cast<int>(h->bucket);
    SetNext(h, free_[b]);
    free_[b] = h;
    FLOWER_POISON(PayloadOf(h) + sizeof(void*), kBucketBytes[b] - sizeof(void*));
  }

  void DrainRemote() {
    BlockHeader* head = nullptr;
    std::size_t count = 0;
    {
      std::lock_guard<std::mutex> lock(remote_mu_);
      head = remote_head_;
      count = remote_count_;
      remote_head_ = nullptr;
      remote_count_ = 0;
    }
    while (head != nullptr) {
      BlockHeader* next = GetNext(head);
      PushFree(head);
      head = next;
    }
    live_ -= count;
    stats_.remote_frees += count;
  }

  BlockHeader* CarveBlock(int b) {
    const std::size_t need = sizeof(BlockHeader) + kBucketBytes[b];
    if (static_cast<std::size_t>(bump_end_ - bump_) < need) {
      slabs_.emplace_back(new char[kSlabBytes]);
      bump_ = slabs_.back().get();
      bump_end_ = bump_ + kSlabBytes;
    }
    BlockHeader* h = reinterpret_cast<BlockHeader*>(bump_);
    bump_ += need;
    return h;
  }

  BlockHeader* free_[kNumBuckets] = {};
  std::vector<std::unique_ptr<char[]>> slabs_;
  char* bump_ = nullptr;
  char* bump_end_ = nullptr;
  std::size_t live_ = 0;
  PayloadArena::Stats stats_;

  std::mutex remote_mu_;
  BlockHeader* remote_head_ = nullptr;
  std::size_t remote_count_ = 0;
};

// Caches live for the whole process: a message allocated by a worker
// thread can still be in flight after that thread exits (the sharded
// executor retires its pool between windows), so per-thread destruction
// would orphan live blocks. The registry is destroyed after main(),
// once no messages remain.
class CacheRegistry {
 public:
  ThreadCache* NewCache() {
    std::lock_guard<std::mutex> lock(mu_);
    caches_.emplace_back(new ThreadCache());
    return caches_.back().get();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<ThreadCache>> caches_;
};

CacheRegistry& Registry() {
  static CacheRegistry* registry = new CacheRegistry();  // never destroyed:
  // blocks (and their owner tags) must outlive any static Message the
  // runtime tears down after main; the OS reclaims at exit.
  return *registry;
}

ThreadCache* LocalCache() {
  static thread_local ThreadCache* cache = Registry().NewCache();
  return cache;
}

}  // namespace

void* PayloadArena::Allocate(std::size_t size) {
  if (size > kMaxBlockBytes) {
    // Oversized envelope: the system allocator serves it, tagged so
    // Deallocate can tell it apart from pooled blocks.
    auto* h = static_cast<BlockHeader*>(::operator new(sizeof(BlockHeader) +
                                                       size));
    h->owner = nullptr;
    h->bucket = 0;
    return PayloadOf(h);
  }
  return LocalCache()->Allocate(size);
}

void PayloadArena::Deallocate(void* p) {
  if (p == nullptr) return;
  BlockHeader* h = HeaderOf(p);
  ThreadCache* owner = h->owner;
  if (owner == nullptr) {
    ::operator delete(h);
    return;
  }
  if (owner == LocalCache()) {
    owner->FreeLocal(h);
  } else {
    owner->FreeRemote(h);
  }
}

PayloadArena::Stats PayloadArena::ThreadStats() {
  return LocalCache()->Snapshot();
}

void PayloadArena::TrimThread() { LocalCache()->Trim(); }

}  // namespace flower
