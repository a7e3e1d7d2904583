// Shadow-oracle recall estimation: re-executes a deterministic 1-in-N
// sample of answered queries through the exact sequential-scan oracle (the
// same ground truth tests/difftest holds the index against) and publishes
// the observed recall and precision, overall and per lower-threshold
// bucket:
//
//   ssr_shadow_offered_total   counter,   scope
//   ssr_shadow_sampled_total   counter,   scope
//   ssr_workload_sample_rate   gauge,     scope (1 / sample_every)
//   ssr_observed_recall        histogram, scope and scope/bucket/<b>
//   ssr_observed_precision     histogram, scope and scope/bucket/<b>
//
// Sampling math: with per-query recall r_i, the estimator reports the mean
// of r_i over the sampled subset. Decimation by arrival order is
// independent of query content, so the sampled mean is an unbiased
// estimate of the full-stream mean with standard error
// sqrt(Var(r)/n_sampled) — for recall in [0, 1] that is at most
// 1/(2*sqrt(n)), i.e. ±0.05 already at n = 100 sampled queries per bucket.
//
// Recall is answer-level: |answer ∩ truth| / |truth| (1 when truth is
// empty). Precision is *candidate*-level: |answer ∩ truth| / candidates —
// verified answers contain no false positives by construction (every sid
// is checked with exact Jaccard), so the interesting precision is how much
// of the candidate set the filters let through, the paper's fig. 7 notion.
//
// The oracle scans through a private SetStore::ReadView, so shadow reads
// never pollute the live path's buffer pool or I/O accounting. Offer takes
// a mutex around the scan; callers only invoke it off the hot path (serial
// queries or the post-batch sample pass).

#ifndef SSR_OBS_SHADOW_ORACLE_H_
#define SSR_OBS_SHADOW_ORACLE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "storage/set_store.h"
#include "util/types.h"

namespace ssr {
namespace obs {

struct ShadowOracleOptions {
  /// Verify every `sample_every`-th offered query (first one included).
  std::uint64_t sample_every = 64;

  /// Instrument scope; empty allocates a unique "shadow/N" scope.
  std::string metrics_scope;
};

/// Per-bucket running aggregate of the estimator.
struct ShadowBucketStats {
  std::uint64_t sampled = 0;
  double recall_sum = 0.0;
  double precision_sum = 0.0;
  double MeanRecall() const {
    return sampled == 0 ? 0.0 : recall_sum / static_cast<double>(sampled);
  }
  double MeanPrecision() const {
    return sampled == 0 ? 0.0 : precision_sum / static_cast<double>(sampled);
  }
};

class ShadowOracleEstimator {
 public:
  /// The store must outlive the estimator and must not be mutated while an
  /// Offer is in flight (the usual immutable-index query contract).
  explicit ShadowOracleEstimator(const SetStore& store,
                                 ShadowOracleOptions options = {});

  /// Offers one answered query; runs the oracle on every sample_every-th
  /// call. Returns true when this query was shadow-verified. Thread-safe
  /// (mutex; the scan dominates the hold time).
  bool Offer(const ElementSet& query, double sigma1, double sigma2,
             const std::vector<SetId>& answer_sids, std::size_t candidates);

  std::uint64_t offered() const;
  std::uint64_t sampled() const;
  ShadowBucketStats overall() const;
  /// Stats for σ1 bucket `b`; zeroed stats for untouched buckets.
  ShadowBucketStats bucket(std::size_t b) const;
  std::size_t num_buckets() const { return kThresholdBuckets; }
  const std::string& metrics_scope() const { return options_.metrics_scope; }
  double sample_rate() const {
    return 1.0 / static_cast<double>(options_.sample_every);
  }

 private:
  /// Per-bucket resolution: bucket b covers σ1 in [b/10, (b+1)/10) (last
  /// bucket closed).
  static constexpr std::size_t kThresholdBuckets = 10;

  std::size_t BucketOf(double sigma1) const;

  ShadowOracleOptions options_;
  mutable std::mutex mu_;
  SetStore::ReadView view_;
  std::uint64_t offered_ = 0;
  std::uint64_t sampled_ = 0;
  ShadowBucketStats overall_;
  std::vector<ShadowBucketStats> buckets_;

  Counter* offered_total_;
  Counter* sampled_total_;
  Gauge* sample_rate_gauge_;
  Histogram* recall_hist_;
  Histogram* precision_hist_;
  std::vector<Histogram*> bucket_recall_;
  std::vector<Histogram*> bucket_precision_;
};

}  // namespace obs
}  // namespace ssr

#endif  // SSR_OBS_SHADOW_ORACLE_H_
