// Slot pool under the simulation's EventQueue (event_queue.h):
// slab-allocated event slots with a free list, SBO callbacks stored in
// place (event_fn.h), and the POD EventHandle ticket with its seq-based
// staleness protocol.
//
// The pool owns everything the queue does NOT need to order events:
//  - Slots live in slabs that never move, so a callback can be invoked
//    in place while new events are pushed.
//  - A slot remembers the seq of its current occupant; a handle (or a
//    queue-held item) whose seq no longer matches is stale — fired,
//    cancelled, or the slot was reused. seq is unique per push for the
//    pool's lifetime, so there is no ABA window.
//  - Cancellation destroys the callback and frees the slot immediately;
//    the queue drops the stale ordering entry lazily when it meets it.
//    Handles hold no owning pointers, so the old shared_ptr-cycle
//    teardown hazard cannot exist by construction.
//
// Item is the 32-byte POD ordering entry whose key packs (time, seq)
// into one 128-bit integer: a single branchless compare is a total
// order (seq is unique) that breaks time ties FIFO — the invariant that
// makes dispatch order, and with it every simulation, deterministic.
//
// Handles must not outlive their pool: everything in this codebase that
// stores one lives inside the owning Simulator's scope.
#ifndef FLOWERCDN_SIM_EVENT_POOL_H_
#define FLOWERCDN_SIM_EVENT_POOL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"

namespace flower {

class EventPool;

/// Handle to a scheduled event; allows cancellation. Default-constructed
/// handles are inert. Copyable POD — all copies go stale together once
/// the event fires or is cancelled.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not fired yet. Idempotent.
  void Cancel();

  /// True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventPool;
  EventHandle(EventPool* pool, uint32_t slot, uint64_t seq)
      : pool_(pool), slot_(slot), seq_(seq) {}

  EventPool* pool_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t seq_ = 0;
};

class EventPool {
 public:
  EventPool() = default;
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Number of live (neither fired nor cancelled) events.
  size_t live_size() const { return live_; }

  /// Events cancelled over the pool's lifetime.
  uint64_t events_cancelled() const { return cancelled_; }

  /// Slots currently pooled (diagnostics: peak concurrent events,
  /// rounded up to whole slabs).
  size_t pool_slots() const { return slabs_.size() * kSlabSlots; }

 protected:
  // The queue is used as a concrete type, never through a pool pointer.
  ~EventPool() = default;

  static constexpr uint32_t kNoSlot = 0xffffffffu;
  /// Occupancy sentinel: seq values start at 0 and only count up, so no
  /// live event ever carries this.
  static constexpr uint64_t kFreeSeq = ~uint64_t{0};
  static constexpr uint32_t kSlabBits = 8;
  static constexpr uint32_t kSlabSlots = 1u << kSlabBits;  // 256 per slab

  /// One pooled event. `seq` identifies the current occupant (kFreeSeq
  /// when the slot is free).
  struct Slot {
    EventFn fn;
    uint64_t seq = kFreeSeq;
    uint32_t next_free = kNoSlot;
  };

  /// POD ordering entry; the callback stays in the slot. The sort key
  /// packs (time, seq) into one 128-bit integer — time in the high 64
  /// bits (Push asserts t >= 0, so the unsigned compare is
  /// order-preserving), seq below breaking ties FIFO — so every ordering
  /// decision is a single branchless compare, and total (seq is unique).
  struct Item {
    unsigned __int128 key;
    uint32_t slot;

    static Item Make(SimTime time, uint64_t seq, uint32_t slot) {
      return Item{(static_cast<unsigned __int128>(static_cast<uint64_t>(time))
                   << 64) |
                      seq,
                  slot};
    }
    SimTime Time() const {
      return static_cast<SimTime>(static_cast<uint64_t>(key >> 64));
    }
    uint64_t Seq() const { return static_cast<uint64_t>(key); }
  };
  static bool Earlier(const Item& a, const Item& b) { return a.key < b.key; }

  Slot& SlotAt(uint32_t index) {
    return slabs_[index >> kSlabBits][index & (kSlabSlots - 1)];
  }
  const Slot& SlotAt(uint32_t index) const {
    return slabs_[index >> kSlabBits][index & (kSlabSlots - 1)];
  }

  /// True while the ordering entry still names the slot's occupant.
  bool ItemLive(const Item& item) const {
    return SlotAt(item.slot).seq == item.Seq();
  }

  /// Mints the handle for a freshly pushed event (friendship does not
  /// extend to the derived queue).
  EventHandle MakeHandle(uint32_t slot, uint64_t seq) {
    return EventHandle(this, slot, seq);
  }

  /// Takes a free slot (growing the slab list if the free list is dry).
  uint32_t AllocSlot();
  /// Destroys the slot's callback and returns it to the free list.
  void FreeSlot(uint32_t index);
  /// Returns an already-emptied slot (fn reset, seq staled by the
  /// dispatch fast path) to the free list.
  void RecycleSlot(uint32_t index) {
    Slot& slot = SlotAt(index);
    slot.next_free = free_head_;
    free_head_ = index;
  }

  std::vector<std::unique_ptr<Slot[]>> slabs_;
  uint32_t next_unused_slot_ = 0;
  uint32_t free_head_ = kNoSlot;
  uint64_t next_seq_ = 0;
  size_t live_ = 0;
  uint64_t cancelled_ = 0;

 private:
  friend class EventHandle;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_EVENT_POOL_H_
