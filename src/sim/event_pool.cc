#include "sim/event_pool.h"

namespace flower {

void EventHandle::Cancel() {
  if (pool_ == nullptr) return;
  // Seq check: stale after the event fired, was cancelled, or the slot
  // was reused — Cancel is a no-op in all three cases.
  if (pool_->SlotAt(slot_).seq != seq_) return;
  // Destroy the callback now: closures can own handles back into the
  // queue (periodic timers), and their captures must not linger until
  // the queue skims the stale ordering entry.
  pool_->FreeSlot(slot_);
  --pool_->live_;
  ++pool_->cancelled_;
}

bool EventHandle::pending() const {
  return pool_ != nullptr && pool_->SlotAt(slot_).seq == seq_;
}

uint32_t EventPool::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t index = free_head_;
    free_head_ = SlotAt(index).next_free;
    return index;
  }
  if ((next_unused_slot_ >> kSlabBits) >= slabs_.size()) {
    slabs_.push_back(std::make_unique<Slot[]>(kSlabSlots));
  }
  return next_unused_slot_++;
}

void EventPool::FreeSlot(uint32_t index) {
  Slot& slot = SlotAt(index);
  slot.fn.reset();
  slot.seq = kFreeSeq;
  slot.next_free = free_head_;
  free_head_ = index;
}

}  // namespace flower
