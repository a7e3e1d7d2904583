// The hash-table primitive of the filter indices (Section 4.1): buckets of
// set identifiers keyed by the hash of an r-bit sampled key. Each probe of a
// disk-resident table costs one random page read in the paper's cost model,
// and SFI answers a query with O(l) bucket accesses. The table keeps no
// access counter of its own: a probe writes nothing shared, and the
// caller counts accesses per query (SetSimilarityIndex::ProbeFi).
//
// Storage: each bucket is one atomic word. An empty bucket is 0; a bucket
// of one entry holds that entry inline, so it costs no allocation; two or
// more entries live in a heap vector the word points to. With one bucket
// per expected set (the default sizing) most occupied buckets typically
// hold one entry, so a build allocates only for the buckets that grow past
// one.
//
// Concurrency model: a bucket's word is replaced atomically, never
// edited where a reader can see it. In the default single-writer build mode
// mutations edit a heap vector in place. After SetEpochManager() the table
// switches to copy-on-write: Insert/Erase build a replacement word, swap it
// in, and retire a replaced heap vector through the epoch manager — so
// readers probing under an exec::EpochGuard are wait-free and never observe
// a bucket mid-edit.

#ifndef SSR_CORE_HASH_TABLE_H_
#define SSR_CORE_HASH_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "exec/epoch.h"
#include "util/types.h"

namespace ssr {

/// A bucketed hash table of sids. The number of buckets is fixed at build
/// time (power of two). Distinct r-bit keys that land in the same bucket
/// are disambiguated by a 16-bit key fingerprint stored with each entry, so
/// a probe returns (apart from a 2^-16 residual) only sids inserted under
/// the same key — bucket-index collisions otherwise flood every probe with
/// one random sid per table.
class SidHashTable {
 public:
  /// One stored entry: the key fingerprint plus the set identifier.
  struct Entry {
    std::uint16_t fingerprint;
    SetId sid;
  };

  /// `num_buckets` is rounded up to a power of two (>= 1).
  explicit SidHashTable(std::size_t num_buckets);
  ~SidHashTable();

  // Moves happen only while the table is singly-owned (vector growth, SFI
  // construction), so relaxed value transfers of the atomics are exact.
  SidHashTable(SidHashTable&& other) noexcept;
  SidHashTable& operator=(SidHashTable&& other) noexcept;

  /// Switches mutations to copy-on-write with epoch-deferred reclamation.
  /// Call once, before the first concurrent reader; earlier mutations (the
  /// bulk build) stay in-place.
  void SetEpochManager(exec::EpochManager* manager) { manager_ = manager; }

  /// Inserts `sid` under `key_hash`.
  void Insert(std::uint64_t key_hash, SetId sid);

  /// Removes one occurrence of `sid` inserted under `key_hash`.
  /// Returns true if found.
  bool Erase(std::uint64_t key_hash, SetId sid);

  /// Appends the sids stored under `key_hash` to `out` and returns the
  /// physical size of the bucket scanned (the I/O-relevant quantity: a
  /// disk-resident probe reads the whole bucket before filtering). Safe to
  /// call concurrently with COW-mode mutations when the caller holds an
  /// exec::EpochGuard.
  std::size_t Probe(std::uint64_t key_hash, std::vector<SetId>* out) const;

  std::size_t num_buckets() const { return num_buckets_; }
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Prefetch hints for a Probe of `key_hash` that follows: the first pulls
  /// in the bucket's word, the second the heap bucket the word points to,
  /// if any. Neither changes what Probe returns. A caller probing several
  /// tables issues every table's first hint, then every second hint, then
  /// the probes, so the tables' cache misses overlap instead of chaining
  /// (SimilarityFilterIndex::SimVectorInto).
  void PrefetchSlot(std::uint64_t key_hash) const {
    __builtin_prefetch(&slots_[BucketIndex(key_hash)]);
  }
  void PrefetchBucket(std::uint64_t key_hash) const {
    // The word only feeds the prefetch and is never dereferenced, so a
    // relaxed load suffices: a prefetch of a bucket retired since cannot
    // fault, and Probe loads the word again with LoadSlot's ordering.
    const Slot slot =
        slots_[BucketIndex(key_hash)].load(std::memory_order_relaxed);
    if (slot != 0 && !IsInline(slot)) __builtin_prefetch(HeapBucket(slot));
  }

  /// Occupancy diagnostics: size of the largest bucket.
  std::size_t max_bucket_size() const;

  /// Order-sensitive hash of the full table contents (bucket layout,
  /// fingerprints, sids). Two tables digest equal iff every bucket holds the
  /// same entries in the same order — the property the parallel builder must
  /// reproduce to be bit-identical with the serial build.
  std::uint64_t ContentDigest() const;

 private:
  using Bucket = std::vector<Entry>;
  /// A bucket's word: 0 when empty, one inline entry (low bit 1, the
  /// fingerprint in bits 1-16 and the sid in bits 17-48), or a Bucket*
  /// holding two or more entries (aligned, so its low bit is 0).
  using Slot = std::uint64_t;

  static bool IsInline(Slot slot) { return (slot & 1) != 0; }
  static Slot InlineSlot(const Entry& e) {
    return (static_cast<Slot>(e.sid) << 17) |
           (static_cast<Slot>(e.fingerprint) << 1) | 1;
  }
  static Entry InlineEntry(Slot slot) {
    return {static_cast<std::uint16_t>(slot >> 1),
            static_cast<SetId>(slot >> 17)};
  }
  static Bucket* HeapBucket(Slot slot) {
    return reinterpret_cast<Bucket*>(static_cast<std::uintptr_t>(slot));
  }
  static Slot HeapSlot(Bucket* bucket) {
    return static_cast<Slot>(reinterpret_cast<std::uintptr_t>(bucket));
  }
  /// Frees the heap bucket behind `slot`, if it has one.
  static void FreeSlot(Slot slot) {
    if (slot != 0 && !IsInline(slot)) delete HeapBucket(slot);
  }
  /// Calls fn(entries, count) with the entries the word `slot` holds.
  template <typename Fn>
  static void VisitSlot(Slot slot, Fn&& fn) {
    if (slot == 0) {
      fn(static_cast<const Entry*>(nullptr), std::size_t{0});
    } else if (IsInline(slot)) {
      const Entry entry = InlineEntry(slot);
      fn(&entry, std::size_t{1});
    } else {
      const Bucket* bucket = HeapBucket(slot);
      fn(bucket->data(), bucket->size());
    }
  }

  std::size_t BucketIndex(std::uint64_t key_hash) const {
    return key_hash & mask_;
  }
  static std::uint16_t Fingerprint(std::uint64_t key_hash) {
    return static_cast<std::uint16_t>(key_hash >> 48);
  }

  /// Reader-side word load.
  Slot LoadSlot(std::size_t i) const {
    return slots_[i].load(std::memory_order_seq_cst);
  }

  /// Replaces bucket `i`'s word with `replacement` (taking ownership of its
  /// heap bucket, if any) and disposes of the old heap bucket — inline in
  /// build mode, via epoch retire in COW mode.
  void PublishSlot(std::size_t i, Slot replacement);

  std::unique_ptr<std::atomic<Slot>[]> slots_;
  std::size_t num_buckets_ = 0;
  std::size_t mask_ = 0;
  std::atomic<std::size_t> size_{0};
  exec::EpochManager* manager_ = nullptr;
};

}  // namespace ssr

#endif  // SSR_CORE_HASH_TABLE_H_
