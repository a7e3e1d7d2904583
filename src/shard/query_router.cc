#include "shard/query_router.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ssr {
namespace shard {

namespace {

// One shard's outcome, as the gather takes it.
Result<QueryResult> ShardOutcome(const Status& status, QueryResult& answer) {
  if (!status.ok()) return status;
  return std::move(answer);
}

}  // namespace

QueryRouter::QueryRouter(const ShardedSetSimilarityIndex& index,
                         QueryRouterOptions options)
    : index_(&index),
      options_(options),
      pool_(exec::ResolveThreadCount(options.num_threads)) {
  auto& registry = obs::MetricsRegistry::Default();
  if (options_.metrics_scope.empty()) {
    options_.metrics_scope = registry.NewScope("router");
  }
  worker_shards_.resize(pool_.size());
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
  shard_executors_.resize(num_shards);
  for (std::vector<WorkerShard>& row : worker_shards_) row.resize(num_shards);
}

void QueryRouter::ObserveRoutedAnswer(const ElementSet& query, double sigma1,
                                      double sigma2,
                                      const ShardedQueryResult& result) {
  obs::WorkloadObserver* const target = options_.workload_observer;
  if (target == nullptr) return;
  target->CountQuery(sigma1, sigma2, query.size());
  // The merged stats carry per-FI probe totals summed across shards, so one
  // routed query contributes exactly one probe record per FI, like serial.
  for (const auto& p : result.stats.fi_probes) {
    target->CountFiProbe(p.fi, p.bucket_accesses, p.sids, p.failed);
  }
  for (std::size_t s = 0; s < result.per_shard.size(); ++s) {
    if (s < result.shard_status.size() && !result.shard_status[s].ok()) {
      continue;  // degraded shard did no work for this query
    }
    target->CountShardAnswer(s, result.per_shard[s].results);
  }
  target->OfferSample(query, sigma1, sigma2, result.sids,
                      result.stats.filter_candidates());
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

  // The plan pins an epoch for the whole scatter/gather (the workers run
  // inside that pin) and loads every shard slot once.
  const ShardedSetSimilarityIndex::ScatterPlan plan(*index_);
  const std::uint32_t num_shards = plan.num_shards();
  EnsureShardState(num_shards);
  obs::TraceSpan span("router_query");
  span.Tag("shards", static_cast<std::uint64_t>(num_shards));
  span.Tag("workers", static_cast<std::uint64_t>(pool_.size()));

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

  // Scatter: every shard the plan found answering is probed concurrently
  // through the worker's own ReadView for it (private buffer pool + I/O
  // model), so the only shared state the workers touch is read-only index
  // structure. Result slots are per-shard, so writes are index-disjoint.
  std::vector<QueryResult> answers(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  {
    obs::TraceSpan scatter("router_scatter");
    pool_.ParallelFor(0, num_shards, 1, [&](std::size_t s,
                                            std::size_t worker) {
      const SetSimilarityIndex* shard_index =
          plan.index(static_cast<std::uint32_t>(s));
      if (shard_index == nullptr) return;  // the gather fails or skips it
      WorkerShard& state = worker_shards_[worker][s];
      if (state.view == nullptr ||
          state.view->store() != &shard_index->store()) {
        state.view = std::make_unique<SetStore::ReadView>(
            shard_index->store(), options_.view_buffer_pool_pages);
      }
      Stopwatch probe_watch;
      auto r = shard_index->QueryThrough(*state.view, query, sigma1, sigma2,
                                         &state.scratch, shared_signature);
      shard_latency_[s]->Observe(probe_watch.ElapsedSeconds() * 1e6);
      if (r.ok()) {
        answers[s] = std::move(r).value();
      } else {
        statuses[s] = r.status();
      }
    });
  }

  // Gather in shard order — deterministic regardless of which worker
  // finished when.
  obs::TraceSpan gather("router_gather");
  auto result = index_->Gather(plan, [&](std::uint32_t s) {
    return ShardOutcome(statuses[s], answers[s]);
  });
  if (!result.ok()) return result;
  if (result->partial) partials->Increment();
  if (options_.workload_observer != nullptr) {
    ObserveRoutedAnswer(query, sigma1, sigma2, *result);
    options_.workload_observer->UpdateGauges();
  }
  span.Tag("results", static_cast<std::uint64_t>(result->sids.size()));
  return result;
}

RoutedBatchResult QueryRouter::RunBatch(
    const std::vector<exec::BatchQuery>& queries) {
  static obs::Counter* const batches =
      obs::MetricsRegistry::Default().GetCounter("ssr_router_batches_total");
  static obs::Counter* const batch_queries = obs::MetricsRegistry::Default()
      .GetCounter("ssr_router_batch_queries_total");
  batches->Increment();
  batch_queries->Add(queries.size());

  // The plan pins the shard objects for the whole batch (the executors'
  // workers pin their own epochs for the inner copy-on-write structures).
  const ShardedSetSimilarityIndex::ScatterPlan plan(*index_);
  const std::uint32_t num_shards = plan.num_shards();
  EnsureShardState(num_shards);
  Stopwatch wall;
  obs::TraceSpan span("router_batch");
  span.Tag("queries", static_cast<std::uint64_t>(queries.size()));
  span.Tag("shards", static_cast<std::uint64_t>(num_shards));

  RoutedBatchResult out;
  out.queries = queries.size();
  out.threads_used = pool_.size();
  out.statuses.assign(queries.size(), Status::OK());
  out.results.resize(queries.size());
  out.per_shard.resize(num_shards);

  // Scatter: each shard the plan found answering runs the whole batch
  // through its BatchExecutor on the router's shared pool. Shard batches
  // execute one after another on this host (the pool is not reentrant),
  // but deploy to one machine per shard — the modeled makespan below is
  // the slowest shard, not the sum.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const SetSimilarityIndex* shard_index = plan.index(s);
    if (shard_index == nullptr) continue;  // the gather fails or skips it
    obs::TraceSpan shard_span("router_shard_batch");
    shard_span.Tag("shard", static_cast<std::uint64_t>(s));
    std::unique_ptr<exec::BatchExecutor>& executor = shard_executors_[s];
    if (executor == nullptr || executor->index() != shard_index ||
        executor->store() != &shard_index->store()) {
      exec::BatchExecutorOptions exec_options;
      exec_options.grain = options_.batch_grain;
      exec_options.view_buffer_pool_pages = options_.view_buffer_pool_pages;
      executor = std::make_unique<exec::BatchExecutor>(*shard_index, pool_,
                                                       exec_options);
    }
    out.per_shard[s] = executor->Run(queries);
    // One observation per batch: the shard's host wall clock, the honest
    // per-shard figure the latency histogram tracks in batch mode.
    shard_latency_[s]->Observe(out.per_shard[s].wall_seconds * 1e6);
    out.modeled_makespan_seconds =
        std::max(out.modeled_makespan_seconds,
                 out.per_shard[s].modeled_makespan_seconds);
  }

  // Gather: per query, merge the per-shard answers in shard order.
  Stopwatch merge_watch;
  {
    obs::TraceSpan gather("router_gather");
    gather.Tag("queries", static_cast<std::uint64_t>(queries.size()));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      // A malformed query fails as the caller's bug whatever the shards'
      // health, as in the serial scatter.
      Status status = ValidateRangeQuery(queries[i].query, queries[i].sigma1,
                                         queries[i].sigma2);
      if (status.ok()) {
        auto merged = index_->Gather(plan, [&](std::uint32_t s) {
          exec::BatchResult& shard = out.per_shard[s];
          return ShardOutcome(shard.statuses[i], shard.results[i]);
        });
        if (merged.ok()) {
          out.results[i] = std::move(merged).value();
          continue;
        }
        status = merged.status();
      }
      out.statuses[i] = std::move(status);
      ++out.failed;
    }
  }
  if (options_.workload_observer != nullptr) {
    // Serial post-gather pass in input order, exactly like BatchExecutor:
    // deterministic decimation for the sampled side channels.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!out.statuses[i].ok()) continue;
      ObserveRoutedAnswer(queries[i].query, queries[i].sigma1,
                          queries[i].sigma2, out.results[i]);
    }
    options_.workload_observer->UpdateGauges();
  }
  out.merge_seconds = merge_watch.ElapsedSeconds();
  out.wall_seconds = wall.ElapsedSeconds();
  out.modeled_makespan_seconds += out.merge_seconds;
  if (out.modeled_makespan_seconds > 0.0) {
    out.modeled_qps =
        static_cast<double>(out.queries) / out.modeled_makespan_seconds;
  }
  span.Tag("failed", static_cast<std::uint64_t>(out.failed));
  span.Tag("modeled_qps", out.modeled_qps);
  return out;
}

}  // namespace shard
}  // namespace ssr
