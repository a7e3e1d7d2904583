// LRU buffer pool in front of the heap file. A page hit costs nothing; a
// miss charges the I/O cost model (random or sequential, as declared by the
// caller). The evaluation harness sizes the pool small relative to the
// collection so the paper's disk-bound regime is faithfully simulated.
//
// Hit/miss/eviction counts live in obs::MetricsRegistry instruments
// (ssr_buffer_pool_*_total under this pool's scope); BufferPoolStats is a
// snapshot view over them.
//
// The LRU list is intrusive over dense arrays: a page -> slot table indexed
// by page id (heap files number their pages densely from 0) and one slot
// per resident page, linked MRU to LRU by slot index. Neither a hit nor a
// miss allocates once the table covers the pages accessed and the slots
// reached capacity; an eviction reuses the victim's slot.

#ifndef SSR_STORAGE_BUFFER_POOL_H_
#define SSR_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/heap_file.h"
#include "storage/io_cost_model.h"
#include "storage/page.h"

namespace ssr {

/// Buffer pool statistics (a snapshot of the pool's instruments).
struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) /
                                  static_cast<double>(total);
  }
};

/// Tracks which pages are resident; the heap file owns the bytes (memory-
/// backed), so "residency" is bookkeeping that drives cost accounting only.
class BufferPool {
 public:
  /// `capacity_pages` >= 1. `metrics_scope` names this pool's instruments
  /// in the default registry; empty allocates a unique "pool/N" scope so
  /// independent pools never share counters.
  explicit BufferPool(std::size_t capacity_pages,
                      std::string metrics_scope = "");

  /// Declares an access to `page_id`. On a miss, charges `io` one read of
  /// the given kind and makes the page resident (possibly evicting the LRU
  /// page). Returns true on hit.
  bool Access(PageId page_id, bool sequential, IoCostModel& io);

  /// Drops all resident pages (e.g., between experiment phases).
  void Clear();

  BufferPoolStats stats() const {
    return {hits_->value(), misses_->value(), evictions_->value()};
  }
  void ResetStats();

  std::size_t capacity() const { return capacity_; }
  std::size_t resident() const { return slots_.size(); }
  const std::string& metrics_scope() const { return metrics_scope_; }

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  /// One resident page and its neighbours in recency order.
  struct Slot {
    PageId page;
    std::uint32_t prev;  // toward the MRU end; kNoSlot at the head
    std::uint32_t next;  // toward the LRU end; kNoSlot at the tail
  };

  void Unlink(std::uint32_t slot);
  void PushFront(std::uint32_t slot);

  std::size_t capacity_;
  std::string metrics_scope_;
  std::vector<std::uint32_t> slot_of_page_;  // kNoSlot: not resident
  std::vector<Slot> slots_;                  // at most capacity_ entries
  std::uint32_t head_ = kNoSlot;             // most recently used
  std::uint32_t tail_ = kNoSlot;             // least recently used
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* evictions_;
};

}  // namespace ssr

#endif  // SSR_STORAGE_BUFFER_POOL_H_
