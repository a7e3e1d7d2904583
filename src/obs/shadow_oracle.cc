#include "obs/shadow_oracle.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/set_ops.h"

namespace ssr {
namespace obs {

namespace {

/// Bounds for recall/precision histograms: 0.1-wide buckets over [0, 1].
std::vector<double> RatioBounds() {
  std::vector<double> bounds;
  bounds.reserve(10);
  for (int i = 1; i <= 10; ++i) bounds.push_back(0.1 * i);
  return bounds;
}

ShadowOracleOptions ResolveShadowScope(ShadowOracleOptions options) {
  if (options.sample_every == 0) options.sample_every = 1;
  if (options.metrics_scope.empty()) {
    options.metrics_scope = MetricsRegistry::Default().NewScope("shadow");
  }
  return options;
}

}  // namespace

ShadowOracleEstimator::ShadowOracleEstimator(const SetStore& store,
                                             ShadowOracleOptions options)
    : options_(ResolveShadowScope(std::move(options))),
      view_(store),
      buckets_(kThresholdBuckets) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  const std::string& scope = options_.metrics_scope;
  offered_total_ = registry.GetCounter("ssr_shadow_offered_total", scope);
  sampled_total_ = registry.GetCounter("ssr_shadow_sampled_total", scope);
  sample_rate_gauge_ = registry.GetGauge("ssr_workload_sample_rate", scope);
  sample_rate_gauge_->Set(sample_rate());
  recall_hist_ = registry.GetHistogram("ssr_observed_recall", scope,
                                       RatioBounds());
  precision_hist_ = registry.GetHistogram("ssr_observed_precision", scope,
                                          RatioBounds());
  bucket_recall_.reserve(buckets_.size());
  bucket_precision_.reserve(buckets_.size());
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    const std::string bucket_scope = scope + "/bucket/" + std::to_string(b);
    bucket_recall_.push_back(registry.GetHistogram(
        "ssr_observed_recall", bucket_scope, RatioBounds()));
    bucket_precision_.push_back(registry.GetHistogram(
        "ssr_observed_precision", bucket_scope, RatioBounds()));
  }
}

std::size_t ShadowOracleEstimator::BucketOf(double sigma1) const {
  if (sigma1 <= 0.0) return 0;
  if (sigma1 >= 1.0) return kThresholdBuckets - 1;
  return std::min(static_cast<std::size_t>(
                      sigma1 * static_cast<double>(kThresholdBuckets)),
                  kThresholdBuckets - 1);
}

bool ShadowOracleEstimator::Offer(const ElementSet& query, double sigma1,
                                  double sigma2,
                                  const std::vector<SetId>& answer_sids,
                                  std::size_t candidates) {
  std::lock_guard<std::mutex> lock(mu_);
  offered_total_->Increment();
  const bool sample = offered_ % options_.sample_every == 0;
  ++offered_;
  if (!sample) return false;

  TraceSpan span("shadow_oracle");
  // The same exact-Jaccard acceptance band the index's verification uses,
  // so the oracle never disagrees with verification on boundary ties.
  constexpr double kEps = 1e-12;
  std::vector<SetId> truth;
  view_.ScanAll([&](SetId sid, const ElementSet& set) {
    const double sim = Jaccard(set, query);
    if (sim >= sigma1 - kEps && sim <= sigma2 + kEps) truth.push_back(sid);
    return true;
  });

  // Both sides are ascending (scan order / merged answer order).
  std::vector<SetId> hits;
  hits.reserve(std::min(truth.size(), answer_sids.size()));
  std::set_intersection(answer_sids.begin(), answer_sids.end(), truth.begin(),
                        truth.end(), std::back_inserter(hits));
  const double recall =
      truth.empty() ? 1.0
                    : static_cast<double>(hits.size()) /
                          static_cast<double>(truth.size());
  const double precision =
      candidates == 0 ? 1.0
                      : static_cast<double>(hits.size()) /
                            static_cast<double>(candidates);

  ++sampled_;
  sampled_total_->Increment();
  overall_.sampled += 1;
  overall_.recall_sum += recall;
  overall_.precision_sum += precision;
  const std::size_t b = BucketOf(sigma1);
  buckets_[b].sampled += 1;
  buckets_[b].recall_sum += recall;
  buckets_[b].precision_sum += precision;
  recall_hist_->Observe(recall);
  precision_hist_->Observe(precision);
  bucket_recall_[b]->Observe(recall);
  bucket_precision_[b]->Observe(precision);

  span.Tag("bucket", static_cast<std::uint64_t>(b));
  span.Tag("truth", static_cast<std::uint64_t>(truth.size()));
  // "counter."-prefixed numeric tags additionally render as Chrome-trace
  // counter tracks (obs/chrome_trace.h), so estimator activity plots
  // alongside the phase spans.
  span.Tag("counter.ssr_observed_recall", recall);
  span.Tag("counter.ssr_observed_precision", precision);
  span.Tag("counter.ssr_workload_sample_rate", sample_rate());
  return true;
}

std::uint64_t ShadowOracleEstimator::offered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offered_;
}

std::uint64_t ShadowOracleEstimator::sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sampled_;
}

ShadowBucketStats ShadowOracleEstimator::overall() const {
  std::lock_guard<std::mutex> lock(mu_);
  return overall_;
}

ShadowBucketStats ShadowOracleEstimator::bucket(std::size_t b) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (b >= buckets_.size()) return ShadowBucketStats{};
  return buckets_[b];
}

}  // namespace obs
}  // namespace ssr
