// Live workload capture: a low-overhead, thread-safe, mergeable observer
// that samples the query stream into (a) a threshold histogram whose bins
// follow the optimizer's SimilarityHistogram convention (bin i covers
// [i/bins, (i+1)/bins), last bin closed) so captured distributions feed the
// §5 allocator directly, (b) a query set-size histogram, (c) per-FI
// probe/hit/selectivity counters, and (d) per-shard load counters with a
// derived skew gauge.
//
// Concurrency model mirrors QueryStats: the serial query path records into
// one observer directly (relaxed atomics), while concurrent executors give
// every worker a private unscoped observer and MergeFrom them after the
// batch — so the hot path never contends and merged totals are exact.
//
// A scoped observer (non-empty metrics_scope) additionally mirrors every
// count into obs::MetricsRegistry::Default() instruments, which the
// existing Prometheus/JSON exporters render with no further wiring:
//   ssr_workload_queries_total            counter, scope
//   ssr_workload_sigma1 / _sigma2        histogram, scope (threshold bins)
//   ssr_workload_range_coverage          gauge,   scope/bin/<i> ([σ1, σ2]
//                                         interval-coverage mass per bin)
//   ssr_workload_query_set_size          histogram, scope
//   ssr_workload_fi_probes_total          counter, scope/fi/<i>
//   ssr_workload_fi_bucket_accesses_total counter, scope/fi/<i>
//   ssr_workload_fi_sids_total            counter, scope/fi/<i>
//   ssr_workload_fi_failed_probes_total   counter, scope/fi/<i>
//   ssr_workload_fi_selectivity           gauge,   scope/fi/<i>
//   ssr_workload_shard_queries_total      counter, scope/shard/<s>
//   ssr_workload_shard_results_total      counter, scope/shard/<s>
//   ssr_workload_shard_load_share         gauge,   scope/shard/<s>
//   ssr_workload_shard_skew               gauge,   scope
//
// Beyond counting, an observer is the attachment point for the two sampled
// side channels: a ShadowOracleEstimator (obs/shadow_oracle.h) and a
// QueryLogRecorder (obs/query_log.h). OfferSample feeds both; they apply
// their own 1-in-N decimation under their own locks, off the hot path.

#ifndef SSR_OBS_WORKLOAD_OBSERVER_H_
#define SSR_OBS_WORKLOAD_OBSERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/types.h"

namespace ssr {
namespace obs {

class ShadowOracleEstimator;
class QueryLogRecorder;

struct WorkloadObserverOptions {
  /// Threshold-histogram resolution. Matches the default bin count the
  /// optimizer's equidepth machinery works at well enough for layout
  /// placement; bin i covers [i/bins, (i+1)/bins), the last bin closed.
  std::size_t threshold_bins = 20;

  /// Per-FI counter slots (probes beyond this index are dropped; size it to
  /// the index's num_filter_indices + 1 for the mixed-plan extra FI).
  std::size_t max_fis = 16;

  /// Per-shard counter slots; 0 for unsharded deployments.
  std::size_t num_shards = 0;

  /// Non-empty: mirror counts into the default registry under this scope.
  /// Empty: pure in-memory counters (the per-worker merge sources).
  std::string metrics_scope;
};

/// Plain-value snapshot of everything an observer has counted. The
/// optimizer adapter (optimizer/observed_workload.h) consumes this.
struct WorkloadSnapshot {
  std::size_t threshold_bins = 0;
  std::uint64_t queries = 0;
  std::vector<std::uint64_t> sigma1_bins;   // lower-threshold histogram
  std::vector<std::uint64_t> sigma2_bins;   // upper-threshold histogram
  /// Fractional interval-coverage mass per bin: each query adds the overlap
  /// of [σ1, σ2] with the bin, in units of one bin width. A point query
  /// (σ1 == σ2) adds a full unit to its bin.
  std::vector<double> range_coverage;
  std::vector<double> set_size_bounds;      // histogram bucket upper bounds
  std::vector<std::uint64_t> set_size_bins; // one extra overflow bucket

  struct FiCounters {
    std::uint64_t probes = 0;
    std::uint64_t failed_probes = 0;
    std::uint64_t bucket_accesses = 0;
    std::uint64_t sids = 0;  // candidate sids the FI's probes produced
    /// Average sids per probe (0 when never probed).
    double selectivity() const {
      return probes == 0 ? 0.0
                         : static_cast<double>(sids) /
                               static_cast<double>(probes);
    }
  };
  std::vector<FiCounters> fis;

  struct ShardCounters {
    std::uint64_t queries = 0;
    std::uint64_t results = 0;
  };
  std::vector<ShardCounters> shards;

  /// Load skew: (max shard query share) x num_shards. 1.0 = perfectly
  /// balanced, num_shards = every query answered by one shard. 0 when no
  /// shard traffic was recorded.
  double ShardSkew() const;
};

class WorkloadObserver {
 public:
  explicit WorkloadObserver(WorkloadObserverOptions options = {});
  WorkloadObserver(const WorkloadObserver&) = delete;
  WorkloadObserver& operator=(const WorkloadObserver&) = delete;

  /// Counts one query's thresholds and set size. Thread-safe, relaxed
  /// atomics only.
  void CountQuery(double sigma1, double sigma2, std::size_t query_size);

  /// Counts one FI probe: `accesses` hash-table bucket accesses yielding
  /// `sids` candidate sids. Probes at fi >= max_fis are dropped (counted
  /// in dropped_fi_probes). Thread-safe.
  void CountFiProbe(std::size_t fi, std::uint64_t accesses,
                    std::uint64_t sids, bool failed);

  /// Counts one shard's contribution to a scattered query. Thread-safe.
  void CountShardAnswer(std::uint32_t shard, std::uint64_t results);

  /// Folds `other`'s counts into this observer (and into this observer's
  /// registry instruments when scoped). `other` must have the same
  /// threshold_bins / max_fis / num_shards shape. Call after the workers
  /// finish; not safe concurrently with records into `other`.
  void MergeFrom(const WorkloadObserver& other);

  /// Recomputes the derived gauges (per-FI selectivity, per-shard load
  /// share, skew) from current totals. Scoped observers only; cheap enough
  /// to call once per query or batch.
  void UpdateGauges();

  /// Hands one answered query to the attached sampled side channels (the
  /// shadow oracle and the query-log recorder). Decimation and locking are
  /// theirs; unattached channels make this a no-op. `candidates` is the
  /// filter's candidate count, QueryStats::filter_candidates() (the
  /// denominator of the estimator's precision).
  void OfferSample(const ElementSet& query, double sigma1, double sigma2,
                   const std::vector<SetId>& result_sids,
                   std::size_t candidates);

  void set_shadow_oracle(ShadowOracleEstimator* estimator) {
    shadow_oracle_ = estimator;
  }
  void set_recorder(QueryLogRecorder* recorder) { recorder_ = recorder; }
  ShadowOracleEstimator* shadow_oracle() const { return shadow_oracle_; }
  QueryLogRecorder* recorder() const { return recorder_; }

  /// Plain-value copy of all counts (relaxed reads; exact once writers are
  /// quiescent).
  WorkloadSnapshot Snapshot() const;

  std::uint64_t queries() const {
    return queries_.load(std::memory_order_relaxed);
  }
  std::uint64_t dropped_fi_probes() const {
    return dropped_fi_probes_.load(std::memory_order_relaxed);
  }
  const WorkloadObserverOptions& options() const { return options_; }

 private:
  /// The SimilarityHistogram bin of a threshold: floor(s * bins), the last
  /// bin closed so s == 1.0 lands in bins - 1.
  std::size_t ThresholdBin(double s) const;

  WorkloadObserverOptions options_;
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> dropped_fi_probes_{0};
  std::vector<std::atomic<std::uint64_t>> sigma1_bins_;
  std::vector<std::atomic<std::uint64_t>> sigma2_bins_;
  /// Fixed-point interval-coverage mass (units of 1/kCoverageScale bins) —
  /// atomics cannot hold doubles cheaply, and coverage increments are
  /// fractional bin overlaps.
  std::vector<std::atomic<std::uint64_t>> range_coverage_fp_;
  std::vector<double> set_size_bounds_;
  std::vector<std::atomic<std::uint64_t>> set_size_bins_;

  struct FiSlots {
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> failed_probes{0};
    std::atomic<std::uint64_t> bucket_accesses{0};
    std::atomic<std::uint64_t> sids{0};
  };
  std::vector<FiSlots> fi_slots_;

  struct ShardSlots {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> results{0};
  };
  std::vector<ShardSlots> shard_slots_;

  ShadowOracleEstimator* shadow_oracle_ = nullptr;  // not owned
  QueryLogRecorder* recorder_ = nullptr;            // not owned

  // Registry mirrors; all null for unscoped observers.
  Counter* queries_total_ = nullptr;
  Histogram* sigma1_hist_ = nullptr;
  Histogram* sigma2_hist_ = nullptr;
  Histogram* set_size_hist_ = nullptr;
  std::vector<Gauge*> coverage_gauges_;  // one per threshold bin
  struct FiInstruments {
    Counter* probes = nullptr;
    Counter* failed_probes = nullptr;
    Counter* bucket_accesses = nullptr;
    Counter* sids = nullptr;
    Gauge* selectivity = nullptr;
  };
  std::vector<FiInstruments> fi_instruments_;
  struct ShardInstruments {
    Counter* queries = nullptr;
    Counter* results = nullptr;
    Gauge* load_share = nullptr;
  };
  std::vector<ShardInstruments> shard_instruments_;
  Gauge* shard_skew_ = nullptr;
};

}  // namespace obs
}  // namespace ssr

#endif  // SSR_OBS_WORKLOAD_OBSERVER_H_
