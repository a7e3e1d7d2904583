#include "exec/batch_executor.h"

#include <algorithm>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ssr {
namespace exec {

BatchExecutor::BatchExecutor(const SetSimilarityIndex& index,
                             BatchExecutorOptions options)
    : index_(&index),
      options_(options),
      pool_(ResolveThreadCount(options.num_threads)) {
  views_.reserve(pool_.size());
  for (std::size_t w = 0; w < pool_.size(); ++w) {
    views_.emplace_back(index.store());
  }
}

BatchResult BatchExecutor::Run(const std::vector<BatchQuery>& queries) {
  static obs::Counter* const batches =
      obs::MetricsRegistry::Default().GetCounter("ssr_exec_batches_total");
  static obs::Counter* const batch_queries = obs::MetricsRegistry::Default()
      .GetCounter("ssr_exec_batch_queries_total");
  batches->Increment();
  batch_queries->Add(queries.size());

  const std::size_t workers = pool_.size();
  BatchResult out;
  out.threads_used = workers;
  out.queries = queries.size();
  out.statuses.assign(queries.size(), Status::OK());
  out.results.resize(queries.size());

  obs::TraceSpan span("batch");
  span.Tag("queries", static_cast<std::uint64_t>(queries.size()));
  span.Tag("workers", static_cast<std::uint64_t>(workers));

  // Per-worker isolation: the worker's own store view (buffer pool + I/O
  // model, warm from earlier Runs) and a private probe-scratch buffer. The
  // views' I/O counters are read before and after, so a Run reports only
  // its own I/O.
  std::vector<IoStats> io_before(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    io_before[w] = views_[w].io_stats();
  }
  std::vector<std::vector<SetId>> scratch(workers);

  // Per-worker workload observers, shaped like the merge target so the
  // threshold/FI bins line up. Unscoped: pure counters, no registry churn
  // on the hot path.
  obs::WorkloadObserver* const target = options_.workload_observer;
  std::vector<std::unique_ptr<obs::WorkloadObserver>> worker_observers;
  if (target != nullptr) {
    obs::WorkloadObserverOptions shape = target->options();
    shape.metrics_scope.clear();
    worker_observers.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      worker_observers.push_back(
          std::make_unique<obs::WorkloadObserver>(shape));
    }
  }

  pool_.ParallelFor(
      0, queries.size(), /*grain=*/1,
      [&](std::size_t i, std::size_t worker) {
        const BatchQuery& q = queries[i];
        auto r = index_->QueryThrough(views_[worker], q.query, q.sigma1,
                                      q.sigma2, &scratch[worker]);
        if (r.ok()) {
          out.results[i] = std::move(r).value();
          if (target != nullptr) {
            obs::WorkloadObserver& local = *worker_observers[worker];
            const QueryStats& stats = out.results[i].stats;
            local.CountQuery(q.sigma1, q.sigma2, q.query.size());
            for (const auto& p : stats.fi_probes) {
              local.CountFiProbe(p.fi, p.bucket_accesses, p.sids, p.failed);
            }
          }
        } else {
          out.statuses[i] = r.status();
        }
      });

  if (target != nullptr) {
    for (const auto& local : worker_observers) target->MergeFrom(*local);
    // Sampled side channels run serially in input order, off the parallel
    // section: deterministic decimation, and the shadow oracle's scans
    // never contend with live workers.
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!out.statuses[i].ok()) continue;
      target->OfferSample(queries[i].query, queries[i].sigma1,
                          queries[i].sigma2, out.results[i].sids,
                          out.results[i].stats.filter_candidates());
    }
    target->UpdateGauges();
  }

  const JobStats& job = pool_.last_job_stats();
  out.wall_seconds = job.wall_seconds;
  out.worker_cpu_seconds = job.worker_cpu_seconds;
  out.worker_io_seconds.resize(workers, 0.0);
  const IoCostParams& io_params = index_->store().io().params();
  for (std::size_t w = 0; w < workers; ++w) {
    out.worker_io_seconds[w] =
        (views_[w].io_stats() - io_before[w]).SimulatedSeconds(io_params);
  }
  for (const Status& s : out.statuses) {
    if (!s.ok()) ++out.failed;
  }

  // The modeled runtime of the batch is its critical path: the busiest
  // worker's CPU plus the simulated time of the I/O that worker issued.
  for (std::size_t w = 0; w < workers; ++w) {
    out.modeled_makespan_seconds =
        std::max(out.modeled_makespan_seconds,
                 out.worker_cpu_seconds[w] + out.worker_io_seconds[w]);
  }
  if (out.wall_seconds > 0.0) {
    out.wall_qps = static_cast<double>(out.queries) / out.wall_seconds;
  }
  if (out.modeled_makespan_seconds > 0.0) {
    out.modeled_qps =
        static_cast<double>(out.queries) / out.modeled_makespan_seconds;
  }
  span.Tag("failed", static_cast<std::uint64_t>(out.failed));
  span.Tag("modeled_qps", out.modeled_qps);
  return out;
}

}  // namespace exec
}  // namespace ssr
