#include "core/hash_table.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/epoch.h"
#include "util/hash.h"

namespace ssr {
namespace {

std::vector<SetId> ProbeAll(const SidHashTable& table,
                            std::uint64_t key_hash) {
  std::vector<SetId> out;
  table.Probe(key_hash, &out);
  return out;
}

TEST(SidHashTableTest, BucketCountRoundedToPowerOfTwo) {
  EXPECT_EQ(SidHashTable(100).num_buckets(), 128u);
  EXPECT_EQ(SidHashTable(128).num_buckets(), 128u);
  EXPECT_EQ(SidHashTable(0).num_buckets(), 1u);
}

TEST(SidHashTableTest, InsertThenProbeFindsSid) {
  SidHashTable table(64);
  table.Insert(12345, 7);
  const auto found = ProbeAll(table, 12345);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 7u);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SidHashTableTest, SameKeySharesBucket) {
  SidHashTable table(64);
  table.Insert(99, 1);
  table.Insert(99, 2);
  table.Insert(99, 3);
  EXPECT_EQ(ProbeAll(table, 99).size(), 3u);
}

TEST(SidHashTableTest, FingerprintFiltersBucketCollisions) {
  // Two keys that share a bucket (same low bits) but differ in their
  // fingerprint bits must not see each other's sids.
  SidHashTable table(16);  // 16 buckets: low 4 bits select the bucket
  const std::uint64_t key_a = 0x1111000000000005ULL;
  const std::uint64_t key_b = 0x2222000000000005ULL;  // same bucket, diff fp
  table.Insert(key_a, 1);
  table.Insert(key_b, 2);
  const auto a = ProbeAll(table, key_a);
  const auto b = ProbeAll(table, key_b);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(b[0], 2u);
}

TEST(SidHashTableTest, ProbeReportsPhysicalBucketSize) {
  SidHashTable table(16);
  const std::uint64_t key_a = 0x1111000000000005ULL;
  const std::uint64_t key_b = 0x2222000000000005ULL;
  table.Insert(key_a, 1);
  table.Insert(key_b, 2);
  std::vector<SetId> out;
  // The probe scans the whole shared bucket even though only one entry
  // matches (the I/O cost of reading the bucket page).
  EXPECT_EQ(table.Probe(key_a, &out), 2u);
  EXPECT_EQ(out.size(), 1u);
}

TEST(SidHashTableTest, EraseRemovesOneOccurrence) {
  SidHashTable table(64);
  table.Insert(5, 1);
  table.Insert(5, 2);
  EXPECT_TRUE(table.Erase(5, 1));
  const auto found = ProbeAll(table, 5);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 2u);
  EXPECT_FALSE(table.Erase(5, 1));
  EXPECT_EQ(table.size(), 1u);
}

TEST(SidHashTableTest, EraseRequiresMatchingFingerprint) {
  SidHashTable table(16);
  const std::uint64_t key_a = 0x1111000000000005ULL;
  const std::uint64_t key_b = 0x2222000000000005ULL;
  table.Insert(key_a, 1);
  EXPECT_FALSE(table.Erase(key_b, 1));  // same bucket, wrong key
  EXPECT_TRUE(table.Erase(key_a, 1));
}

TEST(SidHashTableTest, DistributesAcrossBuckets) {
  SidHashTable table(256);
  for (SetId sid = 0; sid < 1000; ++sid) {
    table.Insert(SplitMix64(sid), sid);
  }
  EXPECT_EQ(table.size(), 1000u);
  // With 1000 well-hashed keys over 256 buckets, the max chain should be
  // modest (expected ~4, tail < 20).
  EXPECT_LT(table.max_bucket_size(), 20u);
}

TEST(SidHashTableTest, EmptyProbeReturnsNothing) {
  SidHashTable table(16);
  std::vector<SetId> out;
  EXPECT_EQ(table.Probe(42, &out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(SidHashTableTest, BucketGrowsAndShrinksThroughEveryRepresentation) {
  // A bucket holds one entry inline and two or more in a heap vector. Walk
  // one bucket 0 -> 1 -> 3 -> 1 -> 0 entries, in build mode and in COW
  // mode, with the widest fingerprint and sid the inline word must carry.
  const std::uint64_t key = 0xFFFF000000000003ULL;
  const SetId big = 0xFFFFFFFEu;
  for (const bool cow : {false, true}) {
    SCOPED_TRACE(cow ? "copy-on-write" : "build mode");
    exec::EpochManager manager;
    SidHashTable table(16);
    if (cow) table.SetEpochManager(&manager);
    table.Insert(key, big);
    EXPECT_EQ(ProbeAll(table, key), std::vector<SetId>{big});
    table.Insert(key, 1);
    table.Insert(key, 2);
    EXPECT_EQ(ProbeAll(table, key), (std::vector<SetId>{big, 1, 2}));
    EXPECT_EQ(table.max_bucket_size(), 3u);
    EXPECT_TRUE(table.Erase(key, big));
    EXPECT_TRUE(table.Erase(key, 2));
    EXPECT_FALSE(table.Erase(key, 2));
    EXPECT_EQ(ProbeAll(table, key), std::vector<SetId>{1});
    // The digest sees entries, not how they are stored.
    SidHashTable fresh(16);
    fresh.Insert(key, 1);
    EXPECT_EQ(table.ContentDigest(), fresh.ContentDigest());
    EXPECT_TRUE(table.Erase(key, 1));
    EXPECT_TRUE(ProbeAll(table, key).empty());
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.ContentDigest(), SidHashTable(16).ContentDigest());
    manager.Quiesce();
  }
}

// COW mode under readers: one writer walks a single bucket 0 -> 1 -> 3 ->
// 1 -> 0 entries (inline and heap words, each heap word retired as it is
// replaced) while readers run a grouped probe's stages on it — both
// prefetch hints, then Probe — under an EpochGuard. Every probe must see a
// state the walk passes through, and report the entries it returned as the
// bucket's size (all share one key).
TEST(SidHashTableTest, CowBucketProbedWhileOneWriterWalksItsSizes) {
  const std::uint64_t key = 0xABCD000000000007ULL;
  const std::vector<std::vector<SetId>> states = {
      {}, {1}, {1, 2}, {1, 2, 3}, {1, 3}};
  exec::EpochManager manager;
  SidHashTable table(16);
  table.SetEpochManager(&manager);
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  constexpr int kReaders = 2;
  std::vector<int> bad(kReaders, 0);
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      std::vector<SetId> out;
      started.fetch_add(1);
      do {
        exec::EpochGuard guard(manager);
        table.PrefetchSlot(key);
        table.PrefetchBucket(key);
        out.clear();
        const std::size_t size = table.Probe(key, &out);
        if (size != out.size() ||
            std::find(states.begin(), states.end(), out) == states.end()) {
          ++bad[t];
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  for (int round = 0; round < 2000; ++round) {
    table.Insert(key, 1);
    table.Insert(key, 2);
    table.Insert(key, 3);
    EXPECT_TRUE(table.Erase(key, 2));
    EXPECT_TRUE(table.Erase(key, 3));
    EXPECT_TRUE(table.Erase(key, 1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  for (int t = 0; t < kReaders; ++t) EXPECT_EQ(bad[t], 0) << "reader " << t;
  EXPECT_EQ(table.size(), 0u);
  manager.Quiesce();
}

}  // namespace
}  // namespace ssr
