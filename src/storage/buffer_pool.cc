#include "storage/buffer_pool.h"

namespace ssr {

BufferPool::BufferPool(std::size_t capacity_pages, std::string metrics_scope)
    : capacity_(capacity_pages < 1 ? 1 : capacity_pages),
      metrics_scope_(metrics_scope.empty()
                         ? obs::MetricsRegistry::Default().NewScope("pool")
                         : std::move(metrics_scope)) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  hits_ = registry.GetCounter("ssr_buffer_pool_hits_total", metrics_scope_);
  misses_ =
      registry.GetCounter("ssr_buffer_pool_misses_total", metrics_scope_);
  evictions_ =
      registry.GetCounter("ssr_buffer_pool_evictions_total", metrics_scope_);
}

bool BufferPool::Access(PageId page_id, bool sequential, IoCostModel& io) {
  if (page_id < slot_of_page_.size()) {
    const std::uint32_t slot = slot_of_page_[page_id];
    if (slot != kNoSlot) {
      hits_->Increment();
      if (slot != head_) {
        Unlink(slot);
        PushFront(slot);
      }
      return true;
    }
  } else {
    slot_of_page_.resize(static_cast<std::size_t>(page_id) + 1, kNoSlot);
  }
  misses_->Increment();
  if (sequential) {
    io.ChargeSequentialRead();
  } else {
    io.ChargeRandomRead();
  }
  std::uint32_t slot;
  if (slots_.size() >= capacity_) {
    slot = tail_;
    Unlink(slot);
    slot_of_page_[slots_[slot].page] = kNoSlot;
    evictions_->Increment();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].page = page_id;
  slot_of_page_[page_id] = slot;
  PushFront(slot);
  return false;
}

void BufferPool::Unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.prev == kNoSlot) {
    head_ = s.next;
  } else {
    slots_[s.prev].next = s.next;
  }
  if (s.next == kNoSlot) {
    tail_ = s.prev;
  } else {
    slots_[s.next].prev = s.prev;
  }
}

void BufferPool::PushFront(std::uint32_t slot) {
  slots_[slot].prev = kNoSlot;
  slots_[slot].next = head_;
  if (head_ == kNoSlot) {
    tail_ = slot;
  } else {
    slots_[head_].prev = slot;
  }
  head_ = slot;
}

void BufferPool::Clear() {
  for (const Slot& s : slots_) slot_of_page_[s.page] = kNoSlot;
  slots_.clear();
  head_ = kNoSlot;
  tail_ = kNoSlot;
}

void BufferPool::ResetStats() {
  hits_->Reset();
  misses_->Reset();
  evictions_->Reset();
}

}  // namespace ssr
