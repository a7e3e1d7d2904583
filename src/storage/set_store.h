// SetStore: the disk-resident set collection. Composes the heap file (record
// storage), the B+-tree (sid -> record locator, the "conventional data
// structure supporting queries on set identifier" of Section 6), the buffer
// pool, and the I/O cost model. This is what both query paths touch:
//   - the index path fetches candidate sets by sid (random reads), and
//   - the sequential-scan baseline reads every page in file order.

#ifndef SSR_STORAGE_SET_STORE_H_
#define SSR_STORAGE_SET_STORE_H_

#include <functional>
#include <istream>
#include <ostream>
#include <shared_mutex>
#include <string>

#include "fault/retry.h"
#include "obs/metrics.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/heap_file.h"
#include "storage/io_cost_model.h"
#include "storage/snapshot.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// SetStore construction options.
struct SetStoreOptions {
  /// Buffer pool capacity in pages. Small relative to the collection keeps
  /// the workload disk-bound, as in the paper's setup.
  std::size_t buffer_pool_pages = 256;

  /// Simulated I/O cost parameters (seq/random page cost).
  IoCostParams io;

  /// Max keys per B+-tree node.
  std::size_t btree_max_keys = 256;

  /// Whether B+-tree traversals charge random reads per node visited
  /// (index assumed disk-resident). Default false: the paper keeps the sid
  /// index hot and counts data-page I/O only.
  bool charge_btree_io = false;

  /// Scope for this store's instruments (buffer pool, I/O model, record
  /// counters) in obs::MetricsRegistry::Default(). Empty allocates a
  /// unique "store/N" scope so independent stores never share counters.
  std::string metrics_scope;

  /// Retry policy for transient (Unavailable) failures on record fetches —
  /// the "store/get" fault site. Defaults to 3 attempts, no backoff delay.
  fault::RetryPolicy get_retry;
};

/// Mutable collection of sets with paged storage and I/O accounting.
/// Internally synchronized: Add/Delete/Get/ScanAll take the store's
/// exclusive lock (Get mutates the shared buffer pool's LRU state and the
/// I/O counters), while Contains and ReadView reads share it — so any
/// number of ReadViews may run concurrently with writers. High-throughput
/// concurrent readers still prefer ReadView (private pool, no contention
/// on the store's own pool).
class SetStore {
 public:
  explicit SetStore(SetStoreOptions options = SetStoreOptions());

  /// A per-worker read-only view: a private buffer pool and a private I/O
  /// cost model over the store's immutable heap file and sid index. As long
  /// as no writer runs concurrently, any number of ReadViews may Get() in
  /// parallel — the only mutable state each touches is its own. The batch
  /// executor gives each worker one view and merges io_stats() deltas into
  /// per-query stats; process-wide store counters (gets, failures, latency)
  /// are still shared, which is safe (relaxed atomics).
  ///
  /// A view is meant to outlive many queries: the batch executor keeps one
  /// per worker for a batch, the query router one per (worker, shard) for
  /// its lifetime, so the pool stays warm and construction — the only step
  /// that registers metrics — happens once. The view reads the store only
  /// inside Get/ScanAll; between calls it may outlive the store, as long as
  /// it is then only destroyed or compared by store().
  class ReadView {
   public:
    /// `buffer_pool_pages` = 0 uses the store's configured pool capacity.
    /// The view's pool and I/O instruments live under a fresh
    /// "<store-scope>/view/N" metrics scope so views never share counters.
    explicit ReadView(const SetStore& store,
                      std::size_t buffer_pool_pages = 0);

    /// The store this view reads (identity only once the store is gone).
    const SetStore* store() const { return store_; }

    /// Identical semantics to SetStore::Get (fault retries included), but
    /// charges this view's pool and cost model only.
    Result<ElementSet> Get(SetId sid);

    /// Identical semantics to SetStore::ScanAll (sequential-read charging
    /// included), against this view's cost model.
    void ScanAll(const std::function<bool(SetId, const ElementSet&)>& visitor);

    /// This view's accumulated simulated I/O.
    IoStats io_stats() const { return io_.stats(); }
    IoCostModel& io() { return io_; }
    const IoCostModel& io() const { return io_; }
    BufferPool& buffer_pool() { return pool_; }

   private:
    const SetStore* store_;
    BufferPool pool_;
    IoCostModel io_;
  };

  /// Adds a set, assigning the next dense SetId. `set` must be normalized
  /// (sorted unique); InvalidArgument otherwise.
  Result<SetId> Add(const ElementSet& set);

  /// Fetches a set by sid through the buffer pool, charging random reads
  /// on misses. NotFound for deleted/unknown sids. Transient page-fetch
  /// faults (the "store/get" site, surfaced as Unavailable) are retried
  /// under options.get_retry before the error escapes.
  Result<ElementSet> Get(SetId sid);

  /// Removes a set from the collection (unlinks it from the sid index; heap
  /// space is not reclaimed, as in a heap file without vacuum).
  Status Delete(SetId sid);

  /// True iff sid currently maps to a live record.
  bool Contains(SetId sid) const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return btree_.Contains(sid);
  }

  /// Visits every live set in file order, charging one sequential read per
  /// distinct page in file order (the cost of a full-file scan). Returning
  /// false stops the scan early (the cost of remaining pages is not
  /// charged).
  void ScanAll(const std::function<bool(SetId, const ElementSet&)>& visitor);

  /// Number of live sets.
  std::size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return btree_.size();
  }

  /// Total heap-file pages (the sequential-scan cost in pages).
  std::size_t num_pages() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return file_.num_pages();
  }

  /// Average live-record size in pages (fractional); the paper's crossover
  /// bound |Q| < |S| * a / rtn uses this "a".
  double AvgSetPages() const;

  IoCostModel& io() { return io_; }
  const IoCostModel& io() const { return io_; }
  BufferPool& buffer_pool() { return pool_; }
  const BufferPool& buffer_pool() const { return pool_; }
  const BPlusTree& btree() const { return btree_; }
  const HeapFile& file() const { return file_; }

  /// The scope this store's instruments are registered under.
  const std::string& metrics_scope() const { return options_.metrics_scope; }

  /// Drops the buffer pool contents and zeroes I/O counters (between
  /// experiment phases).
  void ResetIoAccounting();

  /// Persists the collection (heap file + live-set index) as checksummed v2
  /// snapshots (storage/snapshot.h); Load reconstructs it under fresh
  /// `options` (buffer pool and I/O accounting start empty). Round-trips
  /// all live and deleted state.
  ///
  /// Strict loads (default) fail with a typed status on the first integrity
  /// error: DataLoss for truncation, Corruption for checksum mismatches,
  /// NotSupported for version skew. With `load_options.salvage`, damage in
  /// the heap's pages section is tolerated — corrupt pages are quarantined,
  /// records living on them are dropped from the live index (counted in
  /// ssr_recovery_* metrics and `load_options.report`), and the store comes
  /// up serving the surviving records.
  Status SaveTo(std::ostream& out) const;
  static Result<SetStore> Load(std::istream& in,
                               SetStoreOptions options = SetStoreOptions(),
                               const SnapshotLoadOptions& load_options = {});

  // Moves happen only while singly-owned (Load plumbing, shard setup) —
  // never concurrently with readers or writers; the lock is not moved.
  SetStore(SetStore&& other) noexcept;
  SetStore& operator=(SetStore&& other) noexcept;
  ~SetStore() = default;

 private:
  // Guards file_/btree_/pool_/io_/next_sid_/live_bytes_: exclusive for
  // mutations and pool-touching reads, shared for ReadView fetches and
  // pure lookups. Declared first so it outlives every guarded member
  // during destruction.
  mutable std::shared_mutex mu_;
  SetStoreOptions options_;
  HeapFile file_;
  BPlusTree btree_;
  BufferPool pool_;
  IoCostModel io_;
  obs::Counter* sets_added_;      // ssr_store_sets_added_total
  obs::Counter* gets_;            // ssr_store_gets_total
  obs::Counter* scans_;           // ssr_store_scans_total
  obs::Counter* fetch_failures_;  // ssr_store_fetch_failures_total
  obs::Gauge* live_sets_;         // ssr_store_live_sets
  obs::Gauge* heap_pages_;        // ssr_store_heap_pages
  obs::Histogram* get_latency_hist_;  // ssr_store_get_latency_micros
  SetId next_sid_ = 0;
  std::uint64_t live_bytes_ = 0;
};

}  // namespace ssr

#endif  // SSR_STORAGE_SET_STORE_H_
