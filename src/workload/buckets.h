// The paper's result-size buckets (Section 6): queries are classified by the
// size of the candidate sid list the index's filter returns (before the
// size window, QueryStats::filter_candidates()), as a fraction of the
// collection: <0.5%, 0.5-5%, 5-10%, 10-25%, 25-35%. Per-bucket averages of
// recall, precision, and response time are what Figures 6 and 7 report.

#ifndef SSR_WORKLOAD_BUCKETS_H_
#define SSR_WORKLOAD_BUCKETS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace ssr {

/// One result-size bucket: (lo, hi] as fractions of the collection size.
struct ResultSizeBucket {
  double lo_fraction;
  double hi_fraction;
  std::string label;
};

/// The paper's five buckets.
std::vector<ResultSizeBucket> PaperResultSizeBuckets();

/// Index of the bucket `result_size/collection_size` falls in, or
/// buckets.size() if outside all of them.
std::size_t ClassifyResultSize(std::size_t result_size,
                               std::size_t collection_size,
                               const std::vector<ResultSizeBucket>& buckets);

}  // namespace ssr

#endif  // SSR_WORKLOAD_BUCKETS_H_
