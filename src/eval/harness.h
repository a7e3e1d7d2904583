// The end-to-end experiment harness behind the Figure 6/7 benchmarks:
// generate (or accept) a dataset, load it into the paged store, run the
// Section 5 optimizer for a table budget + recall target, build the
// composite index, then drive random range queries bucketed by candidate
// result size (the paper's five buckets), measuring per-bucket recall,
// precision, simulated I/O time, CPU time, and the sequential-scan
// comparator.

#ifndef SSR_EVAL_HARNESS_H_
#define SSR_EVAL_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/set_similarity_index.h"
#include "optimizer/index_builder.h"
#include "storage/set_store.h"
#include "util/result.h"
#include "workload/buckets.h"
#include "workload/query_generator.h"

namespace ssr {

/// Experiment knobs (defaults: a laptop-scale rendition of the paper's
/// setup: k = 100 min-hashes, budget 500, 90% recall target).
struct ExperimentConfig {
  /// Dataset name ("set1"/"set2") and down-scaling factor (1.0 = the
  /// paper's 200,000 sets).
  std::string dataset = "set1";
  double scale = 0.05;

  /// Optimization constraint (Section 5): total hash tables.
  std::size_t table_budget = 500;

  /// Optimization objective: expected worst-case recall threshold T.
  double recall_threshold = 0.9;

  /// If the construction cannot meet `recall_threshold` (the predicted
  /// model is conservative and small scaled collections are hard), retry
  /// with thresholds lowered in 0.05 steps down to this floor instead of
  /// failing. The achieved threshold is reported in `achieved_threshold`.
  bool allow_threshold_fallback = true;
  double threshold_floor = 0.6;

  /// Embedding: number of min-hashes k and value precision b.
  std::size_t num_minhashes = 100;
  unsigned value_bits = 8;

  /// Signing family (signature engine v2): the benchrunner's `signing`
  /// ablation sweeps this to pin each family's accuracy-vs-speed point.
  MinHashFamilyKind minhash_family = MinHashFamilyKind::kClassic;

  /// Query workload per result-size bucket, and the attempt cap (some
  /// buckets are rare under a given distribution).
  std::size_t queries_per_bucket = 100;
  std::size_t max_attempts_factor = 60;

  /// Pairs sampled for the Lemma 1 distribution estimate.
  std::size_t distribution_sample_pairs = 100000;

  /// Whether to run the sequential-scan comparator per query (Figure 7).
  bool run_scan = true;

  /// Storage knobs.
  std::size_t buffer_pool_pages = 128;
  IoCostParams io;

  std::uint64_t seed = 0xe9a1ab1e5eedULL;
};

/// Per-bucket aggregates (one row of Figure 6 / 7).
struct BucketAggregate {
  std::string label;
  std::size_t query_count = 0;
  double avg_recall = 0.0;
  double avg_precision = 0.0;
  double avg_candidates = 0.0;  // the filter's |A| (filter_candidates())
  double avg_results = 0.0;
  double avg_index_io_seconds = 0.0;
  double avg_index_cpu_seconds = 0.0;
  double avg_scan_io_seconds = 0.0;
  double avg_scan_cpu_seconds = 0.0;

  double avg_index_total_seconds() const {
    return avg_index_io_seconds + avg_index_cpu_seconds;
  }
  double avg_scan_total_seconds() const {
    return avg_scan_io_seconds + avg_scan_cpu_seconds;
  }
};

/// Everything a bench binary needs to print its figure.
struct ExperimentResult {
  std::vector<BucketAggregate> buckets;
  BuiltLayout layout;
  std::size_t collection_size = 0;
  std::size_t heap_pages = 0;
  double avg_set_pages = 0.0;
  double crossover_result_size = 0.0;  // Section 6 analytic bound
  std::size_t total_queries_run = 0;

  /// Unconditioned averages over every query run during the sweep
  /// (including ones whose bucket was already full or out of range).
  /// `overall_avg_*` is the per-query mean; `overall_weighted_*` is the
  /// ratio of sums (Σ retrieved-in-range / Σ answer size), which is the
  /// paper's Definition 8/9 "ratio of expectations" form (footnote 3) and
  /// the quantity the optimizer's average-recall objective predicts.
  double overall_avg_recall = 0.0;
  double overall_avg_precision = 0.0;
  double overall_weighted_recall = 0.0;
  double overall_weighted_precision = 0.0;
};

/// A loaded experiment environment, reusable across query sweeps.
class ExperimentHarness {
 public:
  /// Generates the dataset, loads the store, runs the optimizer, builds the
  /// index. Heavyweight; construct once per configuration.
  static Result<std::unique_ptr<ExperimentHarness>> Create(
      const ExperimentConfig& config);

  /// Runs the bucketed query sweep and aggregates per bucket.
  Result<ExperimentResult> RunBucketedQueries();

  /// Runs one query through index and (optionally) scan; exposed for
  /// focused benches. `truth` receives the exact answer.
  struct SingleQueryOutcome {
    QueryResult index;
    double scan_io_seconds = 0.0;
    double scan_cpu_seconds = 0.0;
    std::vector<SetId> truth;
    double recall = 0.0;
    double precision = 0.0;
  };
  Result<SingleQueryOutcome> RunOne(const RangeQuery& query, bool with_scan);

  const SetCollection& collection() const { return collection_; }
  SetStore& store() { return *store_; }
  SetSimilarityIndex& index() { return *index_; }
  const BuiltLayout& layout() const { return layout_; }
  const ExperimentConfig& config() const { return config_; }

  /// The recall threshold the construction actually met (== the configured
  /// one unless fallback stepped it down).
  double achieved_threshold() const { return achieved_threshold_; }
  const SimilarityHistogram& distribution() const { return *distribution_; }

 private:
  ExperimentHarness() = default;

  ExperimentConfig config_;
  double achieved_threshold_ = 0.0;
  SetCollection collection_;
  std::unique_ptr<SetStore> store_;
  std::unique_ptr<SimilarityHistogram> distribution_;
  BuiltLayout layout_;
  std::unique_ptr<SetSimilarityIndex> index_;
};

}  // namespace ssr

#endif  // SSR_EVAL_HARNESS_H_
