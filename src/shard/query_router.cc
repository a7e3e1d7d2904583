#include "shard/query_router.h"

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ssr {
namespace shard {

QueryRouter::QueryRouter(const ShardedSetSimilarityIndex& index,
                         QueryRouterOptions options)
    : index_(&index), options_(options) {
  auto& registry = obs::MetricsRegistry::Default();
  if (options_.metrics_scope.empty()) {
    options_.metrics_scope = registry.NewScope("router");
  }
  EnsureShardState(index_->num_shards());
  query_latency_ = registry.GetHistogram("ssr_router_query_latency_micros",
                                         options_.metrics_scope,
                                         obs::LatencyBoundsMicros());
}

void QueryRouter::EnsureShardState(std::uint32_t num_shards) {
  if (shard_latency_.size() >= num_shards) return;
  auto& registry = obs::MetricsRegistry::Default();
  for (std::size_t s = shard_latency_.size(); s < num_shards; ++s) {
    shard_latency_.push_back(registry.GetHistogram(
        "ssr_router_shard_latency_micros",
        options_.metrics_scope + "/shard/" + std::to_string(s),
        obs::LatencyBoundsMicros()));
  }
  shards_.resize(num_shards);
}

Result<ShardedQueryResult> QueryRouter::Query(const ElementSet& query,
                                              double sigma1, double sigma2) {
  static obs::Counter* const queries =
      obs::MetricsRegistry::Default().GetCounter("ssr_router_queries_total");
  static obs::Counter* const partials = obs::MetricsRegistry::Default()
      .GetCounter("ssr_router_partial_answers_total");
  queries->Increment();

  // End-to-end latency covers every exit path (including rejected queries:
  // a caller-bug rejection is still time the front end spent answering).
  struct LatencyGuard {
    Stopwatch watch;
    obs::Histogram* hist;
    ~LatencyGuard() { hist->Observe(watch.ElapsedSeconds() * 1e6); }
  } latency_guard{Stopwatch(), query_latency_};

  // A malformed query is the caller's bug, not a shard failure: rejected
  // before any shard is consulted, exactly like the serial scatter.
  SSR_RETURN_IF_ERROR(ValidateRangeQuery(query, sigma1, sigma2));

  // The plan pins an epoch for the whole scatter/gather and loads every
  // shard slot once.
  const ShardedSetSimilarityIndex::ScatterPlan plan(*index_);
  EnsureShardState(plan.num_shards());
  obs::TraceSpan span("router_query");
  span.Tag("shards", static_cast<std::uint64_t>(plan.num_shards()));

  // Sign once, here, with the embedding every shard shares; each shard
  // probes with this one signature instead of signing again. (No embedding
  // means no shard index survived a salvage load: nothing to sign for.)
  Signature signature;
  const Signature* shared_signature = nullptr;
  if (const Embedding* embedding = index_->embedding()) {
    obs::TraceSpan embed("embed");
    signature = embedding->Sign(query);
    shared_signature = &signature;
  }

  // Scatter and gather in one pass, in shard order: the gather runs each
  // answering shard as it reaches it, through the router's own ReadView
  // for that shard (private buffer pool + I/O model).
  auto result =
      index_->Gather(plan, [&](std::uint32_t s) -> Result<QueryResult> {
        const SetSimilarityIndex& shard_index = *plan.index(s);
        ShardState& state = shards_[s];
        if (state.view == nullptr ||
            state.view->store() != &shard_index.store()) {
          state.view =
              std::make_unique<SetStore::ReadView>(shard_index.store());
        }
        Stopwatch probe_watch;
        auto answer =
            shard_index.QueryThrough(*state.view, query, sigma1, sigma2,
                                     &state.scratch, shared_signature);
        shard_latency_[s]->Observe(probe_watch.ElapsedSeconds() * 1e6);
        return answer;
      });
  if (!result.ok()) return result;
  if (result->partial) partials->Increment();
  if (obs::WorkloadObserver* const target = options_.workload_observer) {
    target->CountQuery(sigma1, sigma2, query.size());
    // The merged stats carry per-FI probe totals summed across shards, so
    // one routed query contributes exactly one probe record per FI, like
    // serial.
    for (const auto& p : result->stats.fi_probes) {
      target->CountFiProbe(p.fi, p.bucket_accesses, p.sids, p.failed);
    }
    for (std::size_t s = 0; s < result->per_shard.size(); ++s) {
      if (s < result->shard_status.size() && !result->shard_status[s].ok()) {
        continue;  // degraded shard did no work for this query
      }
      target->CountShardAnswer(s, result->per_shard[s].results);
    }
    target->OfferSample(query, sigma1, sigma2, result->sids,
                        result->stats.filter_candidates());
    target->UpdateGauges();
  }
  span.Tag("results", static_cast<std::uint64_t>(result->sids.size()));
  return result;
}

}  // namespace shard
}  // namespace ssr
