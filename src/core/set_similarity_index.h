// The composite tunable index of Section 4.3: filter indices (SFIs and DFIs)
// at the layout's points over [0,1], a query planner implementing the four
// lo/up enclosing cases, and a verification step that fetches candidate sets
// from the SetStore and removes false positives with exact Jaccard.

#ifndef SSR_CORE_SET_SIMILARITY_INDEX_H_
#define SSR_CORE_SET_SIMILARITY_INDEX_H_

#include <atomic>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/dfi.h"
#include "exec/atomic_slot_array.h"
#include "exec/epoch.h"
#include "core/index_layout.h"
#include "core/sfi.h"
#include "fault/retry.h"
#include "hamming/embedding.h"
#include "obs/metrics.h"
#include "storage/set_store.h"
#include "storage/snapshot.h"
#include "util/stopwatch.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

namespace obs {
class WorkloadObserver;
}  // namespace obs

class WalWriter;

/// How a query behaves when filter probes or candidate fetches keep
/// failing after retries. Whatever the mode, a query never silently
/// returns a wrong answer: it errors, or returns results tagged degraded.
enum class DegradeMode {
  /// Propagate Unavailable to the caller on any degradation.
  kFailFast,
  /// Return whatever survived, tagged degraded in QueryStats (results may
  /// be incomplete but every returned sid is verified correct).
  kPartialResults,
  /// Fall back to verifying the full collection (sequential-scan cost):
  /// exact results, tagged degraded. The default.
  kSequentialFallback,
};

/// Composite index construction options.
struct IndexOptions {
  /// The set -> Hamming embedding (min-hash + ECC) parameters.
  EmbeddingParams embedding;

  /// Buckets per hash table; 0 = sized to the collection.
  std::size_t buckets_per_table = 0;

  /// Master seed for all per-table bit samples.
  std::uint64_t seed = 0xc0a1e5ce0db5ULL;

  /// Charge one random page read per bucket page probed (disk-resident
  /// tables, the paper's model).
  bool charge_bucket_io = true;

  /// Scope for this index's instruments (ssr_index_*) in
  /// obs::MetricsRegistry::Default(). Empty allocates a unique "index/N"
  /// scope. Runtime-only: not persisted by SaveTo/Load.
  std::string metrics_scope;

  /// Worker threads for Build: 1 = serial (the default), 0 = resolve from
  /// the SSR_THREADS environment variable, falling back to the hardware
  /// concurrency (exec::ResolveThreadCount). Any thread count produces a
  /// bit-identical index — signing is sharded by sid slot and table inserts
  /// are sharded by table, both walking sids in ascending order, which is
  /// exactly the serial insertion order. Runtime-only.
  std::size_t num_threads = 1;

  /// Behavior when probes/fetches ultimately fail. Runtime-only.
  DegradeMode degrade = DegradeMode::kSequentialFallback;

  /// Retry policy for transient failures at the "index/probe_fi" fault
  /// site. Runtime-only.
  fault::RetryPolicy probe_retry;
};

/// Which of the Section 4.3 cases answered a query.
enum class QueryPlanKind {
  kDfiPair,         // lo, up both on the DFI side
  kSfiPair,         // lo, up both on the SFI side
  kMixed,           // lo on DFI side, up on SFI side (uses both δ FIs)
  kFullCollection,  // [0, 1]: every live set, no probing needed
};

/// Stable lowercase name for a plan kind ("dfi_pair", "sfi_pair", "mixed",
/// "full_collection") — used in trace tags and JSON reports.
const char* QueryPlanKindName(QueryPlanKind kind);

/// Per-query execution statistics. The counting fields (bucket_accesses,
/// bucket_pages, sids_scanned, sets_fetched) are accumulated directly on
/// the query path, and the same amounts are added to the index's registry
/// instruments — so QueryStats and the exporters agree, and concurrent
/// queries (the batch executor) never see each other's counts. The io
/// field is the delta of whichever I/O model served the query: the store's
/// (serial Query) or the worker's private ReadView (QueryThrough).
struct QueryStats {
  QueryPlanKind plan = QueryPlanKind::kSfiPair;
  double lo_point = 0.0;  // enclosing layout point below σ1 (0 = virtual)
  double up_point = 1.0;  // enclosing layout point above σ2 (1 = virtual)
  std::size_t candidates = 0;       // |A| before verification
  std::size_t results = 0;          // answer size after verification
  std::size_t bucket_accesses = 0;  // hash-table probes (l per FI probed)
  std::size_t bucket_pages = 0;     // pages those probes cost
  std::size_t sids_scanned = 0;     // bucket entries read before dedup
  std::size_t sets_fetched = 0;     // candidate sets fetched for verification
  IoStats io;                       // store I/O delta for this query
  double io_seconds = 0.0;          // simulated I/O time
  double cpu_seconds = 0.0;         // measured CPU time

  /// True iff the query executed on a degraded path (a probe or fetch
  /// ultimately failed and the DegradeMode recovered). Under
  /// kSequentialFallback the results are still exact; under
  /// kPartialResults they may be incomplete but are never wrong.
  bool degraded = false;
  std::size_t probe_failures = 0;  // FI probes that failed after retries
  std::size_t fetch_failures = 0;  // candidate fetches that failed
  std::size_t retry_attempts = 0;  // FI probe re-issues (fault/retry.h)
  double retry_backoff_micros = 0.0;  // total backoff those retries slept

  /// One entry per FI probe this query issued, in probe order — the raw
  /// material for per-FI workload accounting (obs::WorkloadObserver). The
  /// batch executor and query router feed their observers from these, so a
  /// query's per-FI attribution survives the trip through worker threads
  /// exactly like its scalar counters. In sharded merged stats, entries
  /// with the same fi index are accumulated across shards.
  struct FiProbeStat {
    std::uint32_t fi = 0;                // index into the layout's FIs
    std::uint64_t bucket_accesses = 0;   // hash-table probes
    std::uint64_t sids = 0;              // candidate sids the probe yielded
    bool failed = false;                 // failed outright or lost tables
  };
  std::vector<FiProbeStat> fi_probes;
};

/// A verified query answer: sids whose exact Jaccard similarity with the
/// query lies in [σ1, σ2].
struct QueryResult {
  std::vector<SetId> sids;
  QueryStats stats;
};

/// Checks a range query's inputs: 0 <= σ1 <= σ2 <= 1 and a sorted,
/// duplicate-free query set; InvalidArgument otherwise. Every query entry
/// point runs it first, and the sharded front ends run it before they
/// consult any shard.
Status ValidateRangeQuery(const ElementSet& query, double sigma1,
                          double sigma2);

/// Build-time statistics: wall time plus the per-worker CPU accounting of
/// the two parallel phases (signing, table inserts). makespan_seconds is
/// the modeled parallel build time — the serial portions at wall-clock cost
/// plus, for each parallel phase, the busiest worker's CPU time. On a
/// machine with fewer cores than workers the wall clock cannot show the
/// speedup, but the makespan (like the simulated I/O model) still can.
struct BuildStats {
  std::size_t threads = 1;
  std::size_t sets_indexed = 0;
  double wall_seconds = 0.0;
  double sign_cpu_seconds = 0.0;       // summed across workers
  double insert_cpu_seconds = 0.0;     // summed across workers
  double sign_makespan_seconds = 0.0;  // busiest worker, sign phase
  double insert_makespan_seconds = 0.0;  // busiest worker, insert phase
  double makespan_seconds = 0.0;       // modeled end-to-end build time
};

/// The composite set-similarity range index.
class SetSimilarityIndex {
 public:
  /// Builds the index over every live set in `store`. The layout must
  /// validate OK and have at least one point. I/O accounting in `store` is
  /// reset after the build so query measurements start clean.
  static Result<SetSimilarityIndex> Build(SetStore& store,
                                          const IndexLayout& layout,
                                          const IndexOptions& options);

  /// Answers (q, [σ1, σ2]): probes the enclosing filter indices, applies
  /// the Section 4.3 set algebra, verifies candidates against the store.
  /// Requires 0 <= σ1 <= σ2 <= 1. Const: the only state a query touches is
  /// registry instruments (relaxed atomics) and the store's buffer pool —
  /// which is why *concurrent* queries must use QueryThrough instead.
  Result<QueryResult> Query(const ElementSet& query, double sigma1,
                            double sigma2) const;

  /// Like Query but skips verification: returns the raw candidate sids
  /// (useful for measuring filter quality and for the paper's result-size
  /// bucketing, which classifies queries by candidate count).
  Result<QueryResult> QueryCandidates(const ElementSet& query, double sigma1,
                                      double sigma2) const;

  /// Thread-safe Query variant for the batch executor: candidate fetches
  /// and I/O accounting go through `view` (one per worker), so any number
  /// of threads may call this concurrently. Without EnableConcurrentWrites
  /// the index must not be mutated during reads; with it, Insert/Erase may
  /// run concurrently (readers pin an epoch and observe consistent
  /// copy-on-write snapshots). `scratch` (optional) is the probe-union
  /// reuse buffer — pass the same vector across a worker's queries to
  /// eliminate per-probe allocation churn. `signature` (optional) is the
  /// query's signature under this index's embedding, already computed by
  /// the caller (the query router signs once for all shards); null signs
  /// here. A signature of the wrong dimension is InvalidArgument. Answers
  /// are identical to Query's.
  Result<QueryResult> QueryThrough(SetStore::ReadView& view,
                                   const ElementSet& query, double sigma1,
                                   double sigma2,
                                   std::vector<SetId>* scratch = nullptr,
                                   const Signature* signature = nullptr) const;

  /// Dynamic maintenance (Section 4.3 notes hash indices are fully
  /// dynamic): registers a set already added to the store under `sid`.
  Status Insert(SetId sid, const ElementSet& set);

  /// Unregisters a deleted set from all filter indices.
  Status Erase(SetId sid);

  /// Switches the index to live-mutability mode: all further Insert/Erase
  /// calls publish copy-on-write replacements of the touched hash-table
  /// buckets and signature slots, retiring the old versions through
  /// `manager` (nullptr = the process-wide exec::EpochManager::Default()),
  /// and every query pins an epoch for its whole lifetime. Call once after
  /// Build/Load, before the first concurrent reader or writer. Mutations
  /// are serialized internally (one writer at a time); reads never block.
  /// The manager must outlive the index.
  void EnableConcurrentWrites(exec::EpochManager* manager = nullptr);

  /// The epoch manager attached by EnableConcurrentWrites (nullptr before).
  exec::EpochManager* epoch_manager() const { return epoch_manager_; }

  const IndexLayout& layout() const { return layout_; }
  const Embedding& embedding() const { return *embedding_; }
  std::size_t num_filter_indices() const { return fis_.size(); }
  std::size_t num_live_sets() const {
    return num_live_.load(std::memory_order_relaxed);
  }
  SetStore& store() { return *store_; }
  const SetStore& store() const { return *store_; }

  /// Statistics of the most recent Build (thread count, per-phase CPU,
  /// modeled makespan).
  const BuildStats& build_stats() const { return build_stats_; }

  /// Order-sensitive digest over every filter index's hash-table contents
  /// and all live signatures. Two builds of the same collection digest
  /// equal iff they produced bit-identical indexes — the parallel-build
  /// determinism contract is verified against this.
  std::uint64_t ContentDigest() const;

  /// The scope this index's instruments are registered under.
  const std::string& metrics_scope() const { return options_.metrics_scope; }

  /// Attaches a workload observer to the *serial* query path: every
  /// successful Query/QueryCandidates counts its thresholds, set size, and
  /// FI probes, and completed Query answers are offered to the observer's
  /// sampled side channels (shadow oracle, query-log recorder). Concurrent
  /// paths (QueryThrough) deliberately do not record — the batch executor
  /// and query router own per-worker observers and feed them from
  /// QueryStats, so queries are never double counted. Runtime-only state:
  /// not persisted, not moved into snapshots. Pass nullptr to detach. The
  /// observer must outlive the index or be detached first.
  void AttachWorkloadObserver(obs::WorkloadObserver* observer) {
    workload_observer_ = observer;
  }
  obs::WorkloadObserver* workload_observer() const {
    return workload_observer_;
  }

  /// Attaches a write-ahead log (storage/wal.h) to the mutation path:
  /// Insert/Erase append their record — *after* precondition checks, so
  /// no-op mutations are never logged — before any in-memory state
  /// changes. A failed append fails the mutation with nothing applied;
  /// there is no state in which memory is ahead of the log. Runtime-only,
  /// like the workload observer: not persisted, pass nullptr to detach,
  /// and the writer must outlive the index or be detached first.
  void AttachWal(WalWriter* wal) { wal_ = wal; }
  WalWriter* wal() const { return wal_; }

  /// The signature stored for `sid` (for tests; empty optional if dead).
  std::optional<Signature> signature(SetId sid) const;

  /// Persists the index (options, layout, signatures) as a checksummed v2
  /// snapshot (storage/snapshot.h). The SetStore is persisted separately
  /// (SetStore::SaveTo); Load attaches the deserialized index to `store`,
  /// rebuilding the hash tables from the saved signatures without touching
  /// set data — construction is deterministic under the saved seeds, so the
  /// loaded index answers queries identically to the saved one.
  ///
  /// Strict loads fail with a typed status on the first integrity error.
  /// With `load_options.salvage`, a damaged "signatures" section is
  /// tolerated: the signatures are re-embedded from the store's surviving
  /// records instead (counted as signatures_rebuilt in the report), and
  /// saved signatures whose sid no longer exists in the (possibly salvaged)
  /// store are dropped.
  Status SaveTo(std::ostream& out) const;
  static Result<SetSimilarityIndex> Load(
      SetStore& store, std::istream& in,
      const SnapshotLoadOptions& load_options = {});

  // Moves happen only while singly-owned (Build/Load Result plumbing, shard
  // vectors during setup) — never concurrently with readers or writers.
  SetSimilarityIndex(SetSimilarityIndex&& other) noexcept;
  SetSimilarityIndex& operator=(SetSimilarityIndex&& other) noexcept;
  ~SetSimilarityIndex();

 private:
  struct BuiltFi {
    FilterPoint point;
    std::unique_ptr<SimilarityFilterIndex> sfi;   // set iff kind == SFI
    std::unique_ptr<DissimilarityFilterIndex> dfi;  // set iff kind == DFI
  };

  SetSimilarityIndex(SetStore& store, IndexLayout layout,
                     IndexOptions options, Embedding embedding);

  /// Creates the (empty) filter-index structures for the layout.
  Status CreateFilterIndices();

  /// CreateFilterIndices + embed-and-insert every live set in the store,
  /// using options_.num_threads workers (sign phase sharded by sid slot,
  /// insert phase sharded by hash table). Bit-identical for any thread
  /// count. Fills build_stats_.
  Status BuildFilterIndices();

  /// Registers a precomputed signature under `sid` (shared by Insert and
  /// Load). Takes the writer lock.
  Status InsertSignature(SetId sid, Signature sig);

  /// InsertSignature body; caller holds writer_mu_.
  Status InsertSignatureLocked(SetId sid, Signature sig);

  /// Union of the probed buckets for the FI at index `fi_idx`, written into
  /// `*out` (cleared first; reuse one vector across probes to avoid
  /// allocation). Accumulates probe counts into `*stats` and mirrors them
  /// into the per-index instruments; charges bucket I/O to `io`. Transient
  /// faults at the "index/probe_fi" site are retried under
  /// options_.probe_retry; ultimate failure surfaces as Unavailable.
  /// `*partial` is set when the probe succeeded but lost tables to faults
  /// (the union is then a subset of the true answer).
  Status ProbeFi(std::size_t fi_idx, const Signature& query, bool* partial,
                 QueryStats* stats, IoCostModel& io,
                 std::vector<SetId>* out) const;

  /// Shared implementation of Query and QueryThrough. `view` == nullptr is
  /// the serial path (store fetches, store I/O delta); non-null is the
  /// concurrent path (view fetches, view I/O delta). `scratch` may be null;
  /// so may `signature` (then the query is signed here).
  Result<QueryResult> QueryImpl(const ElementSet& query, double sigma1,
                                double sigma2, SetStore::ReadView* view,
                                std::vector<SetId>* scratch,
                                const Signature* signature) const;

  /// Fills the timing fields of `stats` from the query stopwatch and the
  /// accumulated I/O delta.
  void FinishStats(const Stopwatch& watch, QueryStats* stats) const;

  /// All currently live sids, sorted.
  std::vector<SetId> LiveSids() const;

  /// True iff the layout contains at least one DFI.
  bool HasDfi() const;

  /// Computes the candidate set A for [σ1, σ2] per Section 4.3. Probe
  /// failures degrade soundly: a failed/partial *subtractive* probe skips
  /// its subtraction (the result stays a superset, still exact after
  /// verification); a failed/partial *additive* probe may lose true
  /// candidates, which is reported via `*additive_loss` so the caller can
  /// apply the configured DegradeMode. Both paths tag stats->degraded.
  std::vector<SetId> ComputeCandidates(const Signature& query, double sigma1,
                                       double sigma2, QueryStats* stats,
                                       bool* additive_loss, IoCostModel& io,
                                       std::vector<SetId>* scratch) const;

  /// Deletes every live signature slot and resets the logical capacity
  /// (shared by the destructor and move-assignment).
  void FreeSignatures();

  SetStore* store_;  // not owned
  IndexLayout layout_;
  IndexOptions options_;
  std::unique_ptr<Embedding> embedding_;
  std::vector<BuiltFi> fis_;
  // Signature per sid, heap-allocated and published through an atomic slot
  // (nullptr = dead/never-seen). In live-mutability mode a replaced or
  // erased signature is retired through epoch_manager_ so pinned readers
  // finish against the version they observed. capacity_ is the logical
  // high-water mark (max sid + 1 ever registered) — readers iterate
  // [0, capacity_) and rely on Get() returning nullptr past the end.
  exec::AtomicSlotArray<const Signature*> signatures_{nullptr};
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::size_t> num_live_{0};
  // Serializes Insert/Erase (and the WAL append that precedes each apply).
  // Readers never take it.
  std::mutex writer_mu_;
  exec::EpochManager* epoch_manager_ = nullptr;  // not owned; set once
  BuildStats build_stats_;
  obs::WorkloadObserver* workload_observer_ = nullptr;  // not owned
  WalWriter* wal_ = nullptr;                            // not owned
  // Registry instruments under options_.metrics_scope. The hot path updates
  // these; QueryStats fields are deltas over them.
  obs::Counter* queries_;          // ssr_index_queries_total
  obs::Counter* bucket_accesses_;  // ssr_index_bucket_accesses_total
  obs::Counter* bucket_pages_;     // ssr_index_bucket_pages_total
  obs::Counter* sids_scanned_;     // ssr_index_sids_scanned_total
  obs::Counter* sets_fetched_;     // ssr_index_sets_fetched_total
  obs::Counter* results_;          // ssr_index_results_total
  obs::Counter* probe_failures_;   // ssr_index_probe_failures_total
  obs::Counter* fetch_failures_;   // ssr_index_fetch_failures_total
  obs::Counter* degraded_queries_;  // ssr_degraded_queries_total
  obs::Counter* seqscan_fallbacks_;  // ssr_index_seqscan_fallbacks_total
  obs::Gauge* live_sets_;          // ssr_index_live_sets
  obs::Histogram* candidates_hist_;  // ssr_index_candidates_per_query
  obs::Histogram* latency_hist_;  // ssr_index_query_latency_micros
};

}  // namespace ssr

#endif  // SSR_CORE_SET_SIMILARITY_INDEX_H_
