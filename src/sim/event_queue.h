// Priority queue of timed events with O(log n) push/pop and O(1)
// cancellation — the simulation's only scheduling engine. Ties on time
// break by insertion sequence, which makes the whole simulation
// deterministic.
//
// Layout (built on the slot pool, see event_pool.h):
//  - Events live in slab-allocated slot pools with a free list: a Push
//    costs no heap allocation once the pool is warm, and the callback is
//    SBO-stored in its slot (event_fn.h). Slabs never move, so a
//    callback can be invoked in place while new events are pushed.
//  - The heap is a hand-rolled 4-ary implicit heap over 32-byte POD
//    items {128-bit (time, seq) key, slot} — shallower than a binary
//    heap, one branchless compare per ordering decision, and
//    cache-friendlier than shared_ptr-carrying nodes.
//  - Cancellation destroys the callback and frees the slot immediately
//    (EventHandle, event_pool.h); the heap skims the stale item lazily.
//  - The dispatch fast path is RunNextIfBefore: one skim, pop, invoke
//    the callback in its slot (no move, no temporary), then recycle the
//    slot. Pop (move the callback out) remains for callers that need
//    the callable itself.
#ifndef FLOWERCDN_SIM_EVENT_QUEUE_H_
#define FLOWERCDN_SIM_EVENT_QUEUE_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sim/event_fn.h"
#include "sim/event_pool.h"

namespace flower {

class EventQueue : public EventPool {
 public:
  EventQueue() = default;
  ~EventQueue() = default;

  /// Schedules fn at absolute time t. Requires t >= 0.
  EventHandle Push(SimTime t, EventFn fn);

  bool empty() const;

  /// Time of the earliest live event. Requires !empty().
  SimTime NextTime() const;

  /// Pops the earliest live event: removes it and returns its callback
  /// (without running it). Requires !empty(). Reports the event time via
  /// *t.
  EventFn Pop(SimTime* t);

  /// Dispatch fast path: if a live event with time <= bound exists, pops
  /// it, calls `before(time)` (the simulator advances its clock here),
  /// invokes the callback in place, recycles the slot and returns true.
  /// Returns false otherwise. The callback may Push new events and
  /// Cancel others; cancelling its own (already firing) event is a
  /// no-op, exactly as with Pop.
  template <typename BeforeFn>
  bool RunNextIfBefore(SimTime bound, BeforeFn&& before) {
    SkimCancelled();
    if (heap_.empty() || heap_[0].Time() > bound) return false;
    const Item item = heap_[0];
    PopRoot();
    Slot& slot = SlotAt(item.slot);
    // Stale the seq first: handles read "fired" from here on, so a
    // Cancel from inside the callback cannot double-free the slot.
    slot.seq = kFreeSeq;
    --live_;
    before(item.Time());
    // Invoke+destroy in place, one type-erased call; slabs are stable,
    // so pushes during the call are safe.
    slot.fn.InvokeAndReset();
    // Only now may the slot be reused.
    RecycleSlot(item.slot);
    return true;
  }

 private:
  // 4-ary implicit heap over heap_: children of i at 4i+1..4i+4.
  void SiftUp(size_t index) const;
  void SiftDown(size_t index) const;
  void PopRoot() const;

  /// Drops stale (cancelled) items from the root. Logically const: live
  /// events and their order are unchanged.
  void SkimCancelled() const {
    while (!heap_.empty() && !ItemLive(heap_[0])) PopRoot();
  }

  // Skimming mutates only the physical heap (dropping entries that are
  // already dead), so const observers may do it without a const_cast.
  mutable std::vector<Item> heap_;
};

}  // namespace flower

#endif  // FLOWERCDN_SIM_EVENT_QUEUE_H_
