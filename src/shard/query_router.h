// QueryRouter: the parallel scatter/gather front end of the sharded index.
// A single query is validated and signed once, on the calling thread, with
// the embedding every shard shares (ShardedSetSimilarityIndex::embedding);
// that one signature then fans out to every shard on the router's thread
// pool, as in the paper, where one query signature probes every filter
// index. Each (pool worker, shard) pair keeps its own ReadView and probe
// scratch for the router's lifetime, like a BatchExecutor worker keeps its
// view for a batch: shards are queried concurrently without touching each
// other's buffer pools, a routed query's modeled I/O is charged against a
// warm per-worker pool, and steady-state queries register no metrics. A
// view is rebuilt only when its shard slot holds a different store after a
// grow or shrink. A batch goes through one BatchExecutor per shard, every
// executor scheduling on the router's one shared pool (each shard signs
// its batch itself). The router keeps each shard's executor, and with it
// that executor's worker views, rebuilding it only when the slot holds a
// different index or store, so steady-state batches register no metrics
// either. Both take the index's ScatterPlan when they start and merge
// through its Gather, *in shard order*, exactly as the serial
// ShardedSetSimilarityIndex::Query does: the three paths differ only in
// how one shard runs (inline Query, pooled QueryThrough with the shared
// signature, a per-shard BatchExecutor). Router answers are bit-identical
// to serial answers, which the differential harness (tests/difftest/)
// holds as an invariant.
//
// Failure semantics are inherited from the index's ShardFailurePolicy: a
// degraded or erroring shard either fails the query (kFailFast) or is
// skipped with the answer tagged partial + degraded (kPartialResults).
//
// A router serves one caller thread at a time: its pool runs one job at a
// time, and the per-worker state belongs to that job. Threads that query
// concurrently each hold their own router.

#ifndef SSR_SHARD_QUERY_ROUTER_H_
#define SSR_SHARD_QUERY_ROUTER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "exec/batch_executor.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/workload_observer.h"
#include "shard/sharded_index.h"
#include "storage/set_store.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {
namespace shard {

struct QueryRouterOptions {
  /// Worker threads for the router's pool: 0 = resolve from SSR_THREADS /
  /// hardware concurrency (exec::ResolveThreadCount), 1 = serial.
  std::size_t num_threads = 0;

  /// Buffer-pool pages per shard ReadView; 0 = each shard store's
  /// configured capacity.
  std::size_t view_buffer_pool_pages = 0;

  /// Queries per scheduling chunk inside each shard's BatchExecutor.
  std::size_t batch_grain = 1;

  /// Scope for this router's per-shard instruments
  /// (ssr_router_shard_latency_micros under <scope>/shard/<s>). Empty
  /// allocates a unique "router/N" scope.
  std::string metrics_scope;

  /// Workload capture target (not owned; may be null). The router counts
  /// each routed query once — thresholds, set size, merged per-FI probes —
  /// plus per-shard load (CountShardAnswer), and offers completed answers
  /// to the observer's sampled side channels. Shard-level executors do NOT
  /// get the observer (that would count every query once per shard). Must
  /// outlive the router's queries.
  obs::WorkloadObserver* workload_observer = nullptr;
};

/// The outcome of one QueryRouter::RunBatch.
struct RoutedBatchResult {
  /// Per-query status/result, in input order. results[i] is meaningful iff
  /// statuses[i].ok(); a query can fail while its neighbors succeed
  /// (kFailFast with a degraded shard fails every query in the batch).
  std::vector<Status> statuses;
  std::vector<ShardedQueryResult> results;

  std::size_t queries = 0;
  std::size_t failed = 0;
  std::size_t threads_used = 0;

  /// Host wall clock for the whole batch (scatter + gather), and for the
  /// gather/merge alone.
  double wall_seconds = 0.0;
  double merge_seconds = 0.0;

  /// Per-shard batch execution reports, by shard. Default-initialized for
  /// shards that were skipped (degraded).
  std::vector<exec::BatchResult> per_shard;

  /// Modeled batch runtime when every shard runs on its own machine: the
  /// slowest shard's modeled batch makespan plus the (measured) merge time
  /// at the router. modeled_qps = queries / that.
  double modeled_makespan_seconds = 0.0;
  double modeled_qps = 0.0;
};

/// Scatters queries across a ShardedSetSimilarityIndex's shards on a shared
/// thread pool and gathers deterministically. After the index's
/// EnableConcurrentWrites, Query/RunBatch may run concurrently with
/// Insert/Erase and an online rebalance (each scatter's plan pins an
/// epoch; an answer any rebalance overlapped comes back tagged
/// rebalancing and partial). Without it, the index must not be mutated
/// while a Query/RunBatch is in flight (SetShardDegraded included). Query
/// and RunBatch are called from one thread at a time.
class QueryRouter {
 public:
  explicit QueryRouter(const ShardedSetSimilarityIndex& index,
                       QueryRouterOptions options = {});

  /// One query, signed once here and scattered to all shards in parallel.
  /// Answers (including per-shard stats and failure tagging) are identical
  /// to the serial ShardedSetSimilarityIndex::Query. Per-shard latency
  /// (ssr_router_shard_latency_micros) is the shard's probe + verify; the
  /// signing is not part of it.
  Result<ShardedQueryResult> Query(const ElementSet& query, double sigma1,
                                   double sigma2);

  /// A batch of queries: each shard's kept BatchExecutor on the router's
  /// pool (shard batches run one after another on this host; the modeled
  /// makespan treats them as concurrent machines), then a per-query gather
  /// in shard order.
  RoutedBatchResult RunBatch(const std::vector<exec::BatchQuery>& queries);

  std::size_t num_threads() const { return pool_.size(); }
  const std::string& metrics_scope() const { return options_.metrics_scope; }

 private:
  /// One pool worker's reusable state for one shard.
  struct WorkerShard {
    /// Over the store the shard slot held when it was built; rebuilt when
    /// the slot's store differs. (A new store at a freed one's address
    /// keeps the view: it then reads the new store, and only its pool's
    /// page recency — cost-model bookkeeping — is stale.)
    std::unique_ptr<SetStore::ReadView> view;
    std::vector<SetId> scratch;  // probe-union buffer
  };

  /// Feeds one merged answer to the workload observer (counts + sampled
  /// side channels + per-shard load). No-op when no observer is attached.
  void ObserveRoutedAnswer(const ElementSet& query, double sigma1,
                           double sigma2, const ShardedQueryResult& result);

  /// Extends the per-shard state (latency histograms, executor slots, every
  /// worker's WorkerShard slots) to `num_shards` shards, so shards added by
  /// a grow are served and counted like the original ones. Runs on the
  /// calling thread, between pool jobs.
  void EnsureShardState(std::uint32_t num_shards);

  const ShardedSetSimilarityIndex* index_;
  QueryRouterOptions options_;
  exec::ThreadPool pool_;
  /// Per-shard gather-latency histograms under <scope>/shard/<s>: the wall
  /// time of each shard's probe in Query, and each shard's batch makespan
  /// in RunBatch. This is where shard skew becomes visible — the modeled
  /// makespan scalar only reports the max.
  std::vector<obs::Histogram*> shard_latency_;
  /// [worker][shard], indexed by the ParallelFor worker id. Worker w only
  /// touches row w, so the scatter needs no locking.
  std::vector<std::vector<WorkerShard>> worker_shards_;
  /// [shard]: RunBatch's executor for the shard, over the index and store
  /// the slot held when it was built (the same staleness rule as a
  /// WorkerShard view).
  std::vector<std::unique_ptr<exec::BatchExecutor>> shard_executors_;
  /// End-to-end routed query latency (sign + scatter + gather) under the
  /// router's scope: the series the SLO windows track for the sharded
  /// front end, the sharded counterpart of ssr_index_query_latency_micros.
  obs::Histogram* query_latency_;
};

}  // namespace shard
}  // namespace ssr

#endif  // SSR_SHARD_QUERY_ROUTER_H_
