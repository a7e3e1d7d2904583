#include "storage/buffer_pool.h"

#include <algorithm>
#include <list>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace ssr {
namespace {

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4);
  IoCostModel io;
  EXPECT_FALSE(pool.Access(1, false, io));
  EXPECT_TRUE(pool.Access(1, false, io));
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(io.stats().random_reads, 1u);
}

TEST(BufferPoolTest, SequentialFlagRoutesCharge) {
  BufferPool pool(4);
  IoCostModel io;
  pool.Access(1, true, io);
  pool.Access(2, false, io);
  EXPECT_EQ(io.stats().sequential_reads, 1u);
  EXPECT_EQ(io.stats().random_reads, 1u);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(2);
  IoCostModel io;
  pool.Access(1, false, io);
  pool.Access(2, false, io);
  pool.Access(3, false, io);  // evicts 1
  EXPECT_EQ(pool.stats().evictions, 1u);
  EXPECT_FALSE(pool.Access(1, false, io));  // 1 is gone -> miss, evicts 2
  EXPECT_TRUE(pool.Access(3, false, io));   // 3 still resident
}

TEST(BufferPoolTest, AccessRefreshesRecency) {
  BufferPool pool(2);
  IoCostModel io;
  pool.Access(1, false, io);
  pool.Access(2, false, io);
  pool.Access(1, false, io);  // 1 becomes MRU
  pool.Access(3, false, io);  // evicts 2, not 1
  EXPECT_TRUE(pool.Access(1, false, io));
  EXPECT_FALSE(pool.Access(2, false, io));
}

TEST(BufferPoolTest, ClearDropsResidency) {
  BufferPool pool(4);
  IoCostModel io;
  pool.Access(1, false, io);
  pool.Clear();
  EXPECT_EQ(pool.resident(), 0u);
  EXPECT_FALSE(pool.Access(1, false, io));
}

TEST(BufferPoolTest, HitRate) {
  BufferPool pool(4);
  IoCostModel io;
  pool.Access(1, false, io);
  pool.Access(1, false, io);
  pool.Access(1, false, io);
  pool.Access(1, false, io);
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.75);
  pool.ResetStats();
  EXPECT_DOUBLE_EQ(pool.stats().hit_rate(), 0.0);
}

TEST(BufferPoolTest, CapacityFloorOne) {
  BufferPool pool(0);
  EXPECT_EQ(pool.capacity(), 1u);
  IoCostModel io;
  pool.Access(1, false, io);
  pool.Access(2, false, io);
  EXPECT_EQ(pool.resident(), 1u);
}

// The list LRU the pool's slot arrays replace: front = most recently used.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  /// Returns {hit, evicted}.
  std::pair<bool, bool> Access(PageId page) {
    auto it = std::find(lru_.begin(), lru_.end(), page);
    if (it != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, it);
      return {true, false};
    }
    const bool evict = lru_.size() >= capacity_;
    if (evict) lru_.pop_back();
    lru_.push_front(page);
    return {false, evict};
  }
  void Clear() { lru_.clear(); }
  std::size_t resident() const { return lru_.size(); }

 private:
  std::size_t capacity_;
  std::list<PageId> lru_;
};

// Random traces against the reference: every access must hit, miss and
// evict as the list LRU does, with the same number of resident pages.
// Traces mix a hot set that fits the pool, a cold tail that does not,
// sparse page ids up to 2^20, and Clear() calls mid-trace.
TEST(BufferPoolTest, DenseLruMatchesListLruOnRandomTraces) {
  for (std::size_t capacity : {1, 2, 7, 128}) {
    for (std::uint64_t seed : {1, 2, 3}) {
      Rng rng(seed * 1000 + capacity);
      BufferPool pool(capacity);
      ReferenceLru reference(capacity);
      IoCostModel io;
      std::vector<PageId> sparse;
      for (int i = 0; i < 64; ++i) {
        sparse.push_back(static_cast<PageId>(rng.Uniform(1u << 20)));
      }
      const std::uint64_t hot = capacity + 1;
      for (int step = 0; step < 20000; ++step) {
        const std::uint64_t roll = rng.Uniform(1000);
        if (roll == 0) {
          pool.Clear();
          reference.Clear();
          ASSERT_EQ(pool.resident(), 0u);
          continue;
        }
        PageId page;
        if (roll < 600) {
          page = static_cast<PageId>(rng.Uniform(hot));
        } else if (roll < 900) {
          page = static_cast<PageId>(rng.Uniform(4 * capacity + 16));
        } else {
          page = sparse[rng.Uniform(sparse.size())];
        }
        const BufferPoolStats before = pool.stats();
        const bool hit = pool.Access(page, /*sequential=*/false, io);
        const auto [want_hit, want_evict] = reference.Access(page);
        ASSERT_EQ(hit, want_hit) << "capacity " << capacity << ", step "
                                 << step << ", page " << page;
        ASSERT_EQ(pool.stats().evictions - before.evictions,
                  want_evict ? 1u : 0u)
            << "capacity " << capacity << ", step " << step;
        ASSERT_EQ(pool.resident(), reference.resident());
      }
      EXPECT_EQ(pool.stats().misses, io.stats().random_reads);
    }
  }
}

}  // namespace
}  // namespace ssr
