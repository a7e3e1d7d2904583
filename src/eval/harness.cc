#include "eval/harness.h"

#include <algorithm>

#include "baseline/exact_evaluator.h"
#include "baseline/sequential_scan.h"
#include "eval/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "workload/datasets.h"

namespace ssr {

Result<std::unique_ptr<ExperimentHarness>> ExperimentHarness::Create(
    const ExperimentConfig& config) {
  auto harness = std::unique_ptr<ExperimentHarness>(new ExperimentHarness());
  harness->config_ = config;

  SSR_LOG_C(kInfo, "harness").With("dataset", config.dataset)
      << "generating dataset at scale " << config.scale;
  harness->collection_ = MakeDataset(config.dataset, config.scale);

  SetStoreOptions store_options;
  store_options.buffer_pool_pages = config.buffer_pool_pages;
  store_options.io = config.io;
  harness->store_ = std::make_unique<SetStore>(store_options);
  for (const ElementSet& set : harness->collection_) {
    auto sid = harness->store_->Add(set);
    if (!sid.ok()) return sid.status();
  }

  SSR_LOG(kInfo) << "estimating similarity distribution (Lemma 1 sampling)";
  Rng rng(config.seed ^ 0xd15b0fULL);
  harness->distribution_ = std::make_unique<SimilarityHistogram>(
      ComputeSampledDistribution(harness->collection_,
                                 config.distribution_sample_pairs,
                                 /*num_bins=*/100, rng));

  EmbeddingParams embedding_params;
  embedding_params.minhash.num_hashes = config.num_minhashes;
  embedding_params.minhash.value_bits = config.value_bits;
  embedding_params.minhash.seed = config.seed ^ 0xa11ce5ULL;
  embedding_params.minhash.family = config.minhash_family;
  auto embedding = Embedding::Create(embedding_params);
  if (!embedding.ok()) return embedding.status();

  IndexBuilderOptions builder_options;
  builder_options.table_budget = config.table_budget;
  builder_options.recall_threshold = config.recall_threshold;
  Result<BuiltLayout> layout = Status::Internal("unreached");
  double threshold = config.recall_threshold;
  while (true) {
    builder_options.recall_threshold = threshold;
    layout = ConstructIndexLayout(*harness->distribution_, embedding.value(),
                                  builder_options);
    if (layout.ok() || !config.allow_threshold_fallback ||
        threshold - 0.05 < config.threshold_floor - 1e-9) {
      break;
    }
    threshold -= 0.05;
    SSR_LOG(kInfo) << "recall threshold infeasible; retrying at "
                   << threshold;
  }
  if (!layout.ok()) return layout.status();
  harness->achieved_threshold_ = threshold;
  harness->layout_ = std::move(layout).value();
  SSR_LOG(kInfo) << "optimizer layout:\n" << harness->layout_.ToString();

  IndexOptions index_options;
  index_options.embedding = embedding_params;
  index_options.seed = config.seed ^ 0x1de5eedULL;
  auto index = SetSimilarityIndex::Build(*harness->store_,
                                         harness->layout_.layout,
                                         index_options);
  if (!index.ok()) return index.status();
  harness->index_ =
      std::make_unique<SetSimilarityIndex>(std::move(index).value());
  SSR_LOG_C(kInfo, "harness")
          .With("dataset", config.dataset)
          .With("index_scope", harness->index_->metrics_scope())
          .With("store_scope", harness->store_->metrics_scope())
      << "environment ready: " << harness->store_->size() << " sets, "
      << harness->index_->num_filter_indices() << " filter indices";
  return harness;
}

Result<ExperimentHarness::SingleQueryOutcome> ExperimentHarness::RunOne(
    const RangeQuery& query, bool with_scan) {
  SingleQueryOutcome outcome;
  const ElementSet& q = collection_[query.query_sid];

  store_->buffer_pool().Clear();  // cold-cache per query, as on a busy server
  auto index_result = index_->Query(q, query.sigma1, query.sigma2);
  if (!index_result.ok()) return index_result.status();
  outcome.index = std::move(index_result).value();

  ExactEvaluator exact(collection_);
  outcome.truth = exact.Query(q, query.sigma1, query.sigma2);
  outcome.recall = Recall(outcome.index.sids, outcome.truth);
  outcome.precision = CandidatePrecision(
      outcome.index.stats.results, outcome.index.stats.filter_candidates());

  if (with_scan) {
    store_->buffer_pool().Clear();
    obs::TraceSpan scan_span("scan");
    auto scan = SequentialScanQuery(*store_, q, query.sigma1, query.sigma2);
    if (!scan.ok()) return scan.status();
    outcome.scan_io_seconds = scan.value().stats.io_seconds;
    outcome.scan_cpu_seconds = scan.value().stats.cpu_seconds;
  }
  return outcome;
}

Result<ExperimentResult> ExperimentHarness::RunBucketedQueries() {
  ExperimentResult result;
  result.layout = layout_;
  result.collection_size = store_->size();
  result.heap_pages = store_->num_pages();
  result.avg_set_pages = store_->AvgSetPages();
  result.crossover_result_size = ScanCrossoverResultSize(*store_);

  const std::vector<ResultSizeBucket> buckets = PaperResultSizeBuckets();
  struct Accumulator {
    std::size_t count = 0;
    double recall = 0.0, precision = 0.0;
    double candidates = 0.0, results = 0.0;
    double idx_io = 0.0, idx_cpu = 0.0, scan_io = 0.0, scan_cpu = 0.0;
  };
  std::vector<Accumulator> acc(buckets.size());

  QueryGeneratorParams qparams;
  qparams.seed = config_.seed ^ 0x9e7e1a70ULL;
  QueryGenerator generator(collection_, qparams);

  const std::size_t quota = config_.queries_per_bucket;
  const std::size_t max_attempts =
      quota * buckets.size() * config_.max_attempts_factor;
  std::size_t filled = 0;
  double overall_recall = 0.0, overall_precision = 0.0;
  double sum_matched = 0.0, sum_truth = 0.0;
  double sum_results = 0.0, sum_candidates = 0.0;
  for (std::size_t attempt = 0;
       attempt < max_attempts && filled < buckets.size(); ++attempt) {
    const RangeQuery query = generator.Next();
    auto outcome = RunOne(query, config_.run_scan);
    if (!outcome.ok()) return outcome.status();
    ++result.total_queries_run;
    overall_recall += outcome->recall;
    overall_precision += outcome->precision;
    sum_matched += static_cast<double>(
        SortedIntersectionCount(outcome->index.sids, outcome->truth));
    sum_truth += static_cast<double>(outcome->truth.size());
    sum_results += static_cast<double>(outcome->index.stats.results);
    const std::size_t filter_candidates =
        outcome->index.stats.filter_candidates();
    sum_candidates += static_cast<double>(filter_candidates);
    const std::size_t bucket =
        ClassifyResultSize(filter_candidates, store_->size(), buckets);
    if (bucket >= buckets.size()) continue;  // outside the studied range
    Accumulator& a = acc[bucket];
    if (a.count >= quota) continue;
    a.count += 1;
    a.recall += outcome->recall;
    a.precision += outcome->precision;
    a.candidates += static_cast<double>(filter_candidates);
    a.results += static_cast<double>(outcome->index.stats.results);
    a.idx_io += outcome->index.stats.io_seconds;
    a.idx_cpu += outcome->index.stats.cpu_seconds;
    a.scan_io += outcome->scan_io_seconds;
    a.scan_cpu += outcome->scan_cpu_seconds;
    if (a.count == quota) ++filled;
  }

  if (result.total_queries_run > 0) {
    result.overall_avg_recall =
        overall_recall / static_cast<double>(result.total_queries_run);
    result.overall_avg_precision =
        overall_precision / static_cast<double>(result.total_queries_run);
    result.overall_weighted_recall =
        sum_truth > 0.0 ? sum_matched / sum_truth : 1.0;
    result.overall_weighted_precision =
        sum_candidates > 0.0 ? sum_results / sum_candidates : 1.0;
  }
  SSR_LOG_C(kInfo, "harness")
          .With("dataset", config_.dataset)
      << "bucketed sweep done: " << result.total_queries_run << " queries, "
      << filled << "/" << buckets.size() << " buckets filled";
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    BucketAggregate agg;
    agg.label = buckets[i].label;
    agg.query_count = acc[i].count;
    if (acc[i].count > 0) {
      const double n = static_cast<double>(acc[i].count);
      agg.avg_recall = acc[i].recall / n;
      agg.avg_precision = acc[i].precision / n;
      agg.avg_candidates = acc[i].candidates / n;
      agg.avg_results = acc[i].results / n;
      agg.avg_index_io_seconds = acc[i].idx_io / n;
      agg.avg_index_cpu_seconds = acc[i].idx_cpu / n;
      agg.avg_scan_io_seconds = acc[i].scan_io / n;
      agg.avg_scan_cpu_seconds = acc[i].scan_cpu / n;
    }
    result.buckets.push_back(agg);
  }
  return result;
}

}  // namespace ssr
