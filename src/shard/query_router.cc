#include "shard/query_router.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "exec/epoch.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace ssr {
namespace shard {

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

  // Pin an epoch for the whole scatter/gather: shard slots and routing
  // tables loaded here stay dereferenceable even if a concurrent rebalance
  // retires them mid-query. Workers pin their own epochs below.
  std::optional<exec::EpochGuard> epoch_guard;
  if (index_->epoch_manager() != nullptr) {
    epoch_guard.emplace(*index_->epoch_manager());
  }
  const std::uint32_t num_shards = index_->num_shards();
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

  // Scatter: every healthy shard is probed concurrently through the
  // worker's own ReadView for it (private buffer pool + I/O model), so the
  // only shared state the workers touch is read-only index structure.
  // Result slots are per-shard, so writes are index-disjoint.
  std::vector<QueryResult> answers(num_shards);
  std::vector<Status> statuses(num_shards, Status::OK());
  std::vector<char> answered(num_shards, 0);
  std::vector<char> retired(num_shards, 0);
  {
    obs::TraceSpan scatter("router_scatter");
    pool_.ParallelFor(0, num_shards, 1, [&](std::size_t s,
                                            std::size_t worker) {
      // The worker's own pin: the shard pointers it loads stay valid even
      // if a shrink retires the shard before the probe finishes.
      std::optional<exec::EpochGuard> worker_guard;
      if (index_->epoch_manager() != nullptr) {
        worker_guard.emplace(*index_->epoch_manager());
      }
      const SetStore* store =
          index_->shard_store(static_cast<std::uint32_t>(s));
      const SetSimilarityIndex* shard_index =
          index_->shard_index(static_cast<std::uint32_t>(s));
      if (store == nullptr || shard_index == nullptr ||
          index_->shard_degraded(static_cast<std::uint32_t>(s))) {
        // A slot nulled by a completed shrink is not a failed shard: the
        // shard was provably empty when retired, so it is skipped (and
        // tagged at gather) instead of tripping the failure policy.
        if (index_->shard_retired(static_cast<std::uint32_t>(s))) {
          retired[s] = 1;
          return;
        }
        statuses[s] = Status::Unavailable("shard administratively degraded");
        return;
      }
      WorkerShard& state = worker_shards_[worker][s];
      if (state.view == nullptr || state.view->store() != store) {
        state.view = std::make_unique<SetStore::ReadView>(
            *store, options_.view_buffer_pool_pages);
      }
      Stopwatch probe_watch;
      auto r = shard_index->QueryThrough(*state.view, query, sigma1, sigma2,
                                         &state.scratch, shared_signature);
      shard_latency_[s]->Observe(probe_watch.ElapsedSeconds() * 1e6);
      if (r.ok()) {
        answers[s] = std::move(r).value();
        answered[s] = 1;
      } else {
        statuses[s] = r.status();
      }
    });
  }

  // Gather in shard order — deterministic regardless of which worker
  // finished when.
  obs::TraceSpan gather("router_gather");
  ShardedQueryResult result;
  result.per_shard.resize(num_shards);
  result.shard_status.assign(num_shards, Status::OK());
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (answered[s]) {
      index_->GatherShardAnswer(s, std::move(answers[s]), &result);
      continue;
    }
    if (retired[s]) {
      // Shrink finished mid-scatter: nothing was dropped (the shard was
      // empty), but the overlap can hide a moved sid — conservative tag,
      // same contract as a query under an active rebalance.
      result.rebalancing = true;
      result.partial = true;
      continue;
    }
    SSR_RETURN_IF_ERROR(
        index_->GatherShardFailure(s, std::move(statuses[s]), &result));
  }
  index_->FinishGather(&result);
  if (result.partial) partials->Increment();
  if (options_.workload_observer != nullptr) {
    ObserveRoutedAnswer(query, sigma1, sigma2, result);
    options_.workload_observer->UpdateGauges();
  }
  span.Tag("results", static_cast<std::uint64_t>(result.sids.size()));
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

  // Pinned for the whole batch: shard objects loaded below survive a
  // concurrent shrink (inner copy-on-write structures are protected by the
  // per-query pins the executors' workers take themselves).
  std::optional<exec::EpochGuard> epoch_guard;
  if (index_->epoch_manager() != nullptr) {
    epoch_guard.emplace(*index_->epoch_manager());
  }
  const std::uint32_t num_shards = index_->num_shards();
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

  // Scatter: each shard runs the whole batch through its BatchExecutor on
  // the router's shared pool. Shard batches execute one after another on
  // this host (the pool is not reentrant), but deploy to one machine per
  // shard — the modeled makespan below is the slowest shard, not the sum.
  std::vector<char> shard_ran(num_shards, 0);
  std::vector<char> shard_retired(num_shards, 0);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const SetSimilarityIndex* shard_index = index_->shard_index(s);
    if (shard_index == nullptr || index_->shard_degraded(s)) {
      // Retired by a completed shrink vs. genuinely degraded: the former
      // is skipped silently (it was empty), the latter per failure policy.
      if (index_->shard_retired(s)) shard_retired[s] = 1;
      continue;
    }
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
    shard_ran[s] = 1;
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
      ShardedQueryResult merged;
      merged.per_shard.resize(num_shards);
      merged.shard_status.assign(num_shards, Status::OK());
      // A malformed query fails as the caller's bug whatever the shards'
      // health, as in the serial scatter.
      Status failure = ValidateRangeQuery(queries[i].query, queries[i].sigma1,
                                          queries[i].sigma2);
      for (std::uint32_t s = 0; s < num_shards && failure.ok(); ++s) {
        if (!shard_ran[s]) {
          if (shard_retired[s]) {
            merged.rebalancing = true;
            merged.partial = true;
            continue;
          }
          failure = index_->GatherShardFailure(
              s, Status::Unavailable("shard administratively degraded"),
              &merged);
          continue;
        }
        const Status& st = out.per_shard[s].statuses[i];
        if (st.ok()) {
          index_->GatherShardAnswer(
              s, std::move(out.per_shard[s].results[i]), &merged);
        } else {
          failure = index_->GatherShardFailure(s, st, &merged);
        }
      }
      if (!failure.ok()) {
        out.statuses[i] = std::move(failure);
        ++out.failed;
        continue;
      }
      index_->FinishGather(&merged);
      out.results[i] = std::move(merged);
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
