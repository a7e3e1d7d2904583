// QueryRouter: the scatter/gather front end of the sharded index. A query
// is validated and signed once with the embedding every shard shares
// (ShardedSetSimilarityIndex::embedding); that one signature then probes
// every shard, as in the paper, where one query signature probes every
// filter index. Everything runs on the calling thread: the router has no
// thread pool. A near-duplicate probe verifies a few candidates per shard,
// microseconds of work, less than a pool hand-off (~10 µs). A query with
// hundreds of candidates per shard would finish sooner with its shards on
// a pool whose workers run at once (DESIGN.md §10); the benchmark has no
// such routed workload yet.
// Per shard the router keeps one ReadView and probe scratch for its
// lifetime, like a BatchExecutor worker keeps its view: a routed query's
// modeled I/O is charged against a warm private buffer pool, and
// steady-state queries register no metrics. A view is rebuilt only when
// its shard slot holds a different store after a grow or shrink.
// A batch on a sharded index is a loop over Query. Query takes the index's
// ScatterPlan when it starts and merges through its Gather, *in shard
// order*, exactly as the serial ShardedSetSimilarityIndex::Query does: the
// two paths differ only in how one shard runs (Query, which signs per
// shard, or QueryThrough the router's view with the shared signature).
// Router answers are bit-identical to serial answers, which the
// differential harness (tests/difftest/) holds as an invariant.
//
// Failure semantics are inherited from the index's ShardFailurePolicy: a
// degraded or erroring shard either fails the query (kFailFast) or is
// skipped with the answer tagged partial + degraded (kPartialResults).
//
// A router serves one caller thread at a time: its per-shard state belongs
// to the query in flight. Threads that query concurrently each hold their
// own router.

#ifndef SSR_SHARD_QUERY_ROUTER_H_
#define SSR_SHARD_QUERY_ROUTER_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/workload_observer.h"
#include "shard/sharded_index.h"
#include "storage/set_store.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {
namespace shard {

struct QueryRouterOptions {
  /// Unused: a router runs every shard on the calling thread. Kept so that
  /// callers which still set it compile.
  std::size_t num_threads = 0;

  /// Scope for this router's per-shard instruments
  /// (ssr_router_shard_latency_micros under <scope>/shard/<s>). Empty
  /// allocates a unique "router/N" scope.
  std::string metrics_scope;

  /// Workload capture target (not owned; may be null). The router counts
  /// each routed query once — thresholds, set size, merged per-FI probes —
  /// plus per-shard load (CountShardAnswer), and offers completed answers
  /// to the observer's sampled side channels. The shard indexes do NOT get
  /// the observer (that would count every query once per shard). Must
  /// outlive the router's queries.
  obs::WorkloadObserver* workload_observer = nullptr;
};

/// Scatters queries across a ShardedSetSimilarityIndex's shards on the
/// calling thread and gathers deterministically. After the index's
/// EnableConcurrentWrites, Query may run concurrently with Insert/Erase and
/// an online rebalance (each scatter's plan pins an epoch; an answer any
/// rebalance overlapped comes back tagged rebalancing and partial). Without
/// it, the index must not be mutated while a Query is in flight
/// (SetShardDegraded included). Query is called from one thread at a time.
class QueryRouter {
 public:
  explicit QueryRouter(const ShardedSetSimilarityIndex& index,
                       QueryRouterOptions options = {});

  /// One query, signed once here and run on every shard in shard order.
  /// Answers (including per-shard stats and failure tagging) are identical
  /// to the serial ShardedSetSimilarityIndex::Query. Per-shard latency
  /// (ssr_router_shard_latency_micros) is the shard's probe + verify; the
  /// signing is not part of it.
  Result<ShardedQueryResult> Query(const ElementSet& query, double sigma1,
                                   double sigma2);

  const std::string& metrics_scope() const { return options_.metrics_scope; }

 private:
  /// The router's reusable state for one shard.
  struct ShardState {
    /// Over the store the shard slot held when it was built; rebuilt when
    /// the slot's store differs. (A new store at a freed one's address
    /// keeps the view: it then reads the new store, and only its pool's
    /// page recency — cost-model bookkeeping — is stale.)
    std::unique_ptr<SetStore::ReadView> view;
    std::vector<SetId> scratch;  // probe-union buffer
  };

  /// Extends the per-shard state (latency histograms, ShardState slots) to
  /// `num_shards` shards, so shards added by a grow are served and counted
  /// like the original ones.
  void EnsureShardState(std::uint32_t num_shards);

  const ShardedSetSimilarityIndex* index_;
  QueryRouterOptions options_;
  /// Per-shard latency histograms under <scope>/shard/<s>: the wall time
  /// of each shard's probe + verify in Query. This is where shard skew
  /// becomes visible.
  std::vector<obs::Histogram*> shard_latency_;
  std::vector<ShardState> shards_;
  /// End-to-end routed query latency (sign + scatter + gather) under the
  /// router's scope: the series the SLO windows track for the sharded
  /// front end, the sharded counterpart of ssr_index_query_latency_micros.
  obs::Histogram* query_latency_;
};

}  // namespace shard
}  // namespace ssr

#endif  // SSR_SHARD_QUERY_ROUTER_H_
