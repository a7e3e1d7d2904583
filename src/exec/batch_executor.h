// Concurrent batch-query executor: fans a batch of (q, [σ1, σ2]) queries
// across the executor's own worker pool against an immutable
// SetSimilarityIndex. Each worker gets a private SetStore::ReadView (its
// own buffer pool + I/O cost model), kept for the executor's lifetime, and
// a private probe-scratch buffer, so the only shared state the workers
// touch is read-only index structure and relaxed-atomic instruments. Views
// are built once, in the constructor: a Run registers no metrics.
// Answers are identical to issuing the queries serially through
// SetSimilarityIndex::Query. (A batch over a sharded index is a loop over
// shard::QueryRouter::Query, which runs each query's shards on the calling
// thread.)
//
// Throughput is reported two ways, consistent with the repo's convention
// that absolute times come from measured CPU plus the simulated I/O model:
//   - wall_seconds / wall QPS: honest host wall clock (bounded by however
//     many physical cores the machine actually has), and
//   - modeled makespan / modeled QPS: max over workers of (thread CPU time
//     + simulated I/O time), the batch's runtime on a machine that really
//     runs `threads_used` workers concurrently against the modeled disk.

#ifndef SSR_EXEC_BATCH_EXECUTOR_H_
#define SSR_EXEC_BATCH_EXECUTOR_H_

#include <cstddef>
#include <vector>

#include "core/set_similarity_index.h"
#include "exec/thread_pool.h"
#include "obs/workload_observer.h"
#include "util/status.h"
#include "util/types.h"

namespace ssr {
namespace exec {

/// One query of a batch.
struct BatchQuery {
  ElementSet query;
  double sigma1 = 0.0;
  double sigma2 = 1.0;
};

struct BatchExecutorOptions {
  /// Worker threads: 0 = resolve from SSR_THREADS / hardware concurrency
  /// (ResolveThreadCount), 1 = serial.
  std::size_t num_threads = 0;

  /// Workload capture target (not owned; may be null). Each worker counts
  /// into a private unscoped observer shaped like this one, and Run merges
  /// them in (MergeFrom) — exactly the QueryStats per-worker pattern. The
  /// sampled side channels attached to the target (shadow oracle, query
  /// log) are fed in a serial post-batch pass over the answers in input
  /// order, so their 1-in-N decimation stays deterministic regardless of
  /// worker scheduling. Must outlive the Run.
  obs::WorkloadObserver* workload_observer = nullptr;
};

/// The outcome of one BatchExecutor::Run.
struct BatchResult {
  /// Per-query status/result, in input order. results[i] is meaningful iff
  /// statuses[i].ok().
  std::vector<Status> statuses;
  std::vector<QueryResult> results;

  std::size_t threads_used = 0;
  std::size_t queries = 0;
  std::size_t failed = 0;  // queries whose status is not OK

  /// Host wall clock for the whole batch and its QPS.
  double wall_seconds = 0.0;
  double wall_qps = 0.0;

  /// Per-worker totals for this Run: thread CPU time and simulated I/O
  /// time.
  std::vector<double> worker_cpu_seconds;
  std::vector<double> worker_io_seconds;

  /// Modeled batch runtime: max over workers of (cpu + simulated I/O);
  /// modeled_qps = queries / that. Shows the parallel speedup even when
  /// the host has fewer cores than workers.
  double modeled_makespan_seconds = 0.0;
  double modeled_qps = 0.0;
};

/// Runs batches of queries concurrently against one immutable index. The
/// index (and its store) must not be mutated while a Run is in flight.
class BatchExecutor {
 public:
  explicit BatchExecutor(const SetSimilarityIndex& index,
                         BatchExecutorOptions options = {});

  /// Executes every query (order-preserving results) and blocks until done.
  /// Issued from one thread at a time. The worker views stay warm across
  /// Runs, so a later Run is charged I/O only for pages its views miss.
  BatchResult Run(const std::vector<BatchQuery>& queries);

  std::size_t num_threads() const { return pool_.size(); }

 private:
  const SetSimilarityIndex* index_;
  BatchExecutorOptions options_;
  ThreadPool pool_;
  // One per pool worker, indexed by the ParallelFor worker id.
  std::vector<SetStore::ReadView> views_;
};

}  // namespace exec
}  // namespace ssr

#endif  // SSR_EXEC_BATCH_EXECUTOR_H_
