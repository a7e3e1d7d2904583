// Answer-quality metrics: recall and precision of an approximate answer
// against the exact one (Definitions 8/9 measure these in expectation; the
// harness measures them empirically per query and averages per bucket).

#ifndef SSR_EVAL_METRICS_H_
#define SSR_EVAL_METRICS_H_

#include <vector>

#include "util/types.h"

namespace ssr {

/// |a ∩ b| for sorted sid vectors.
std::size_t SortedIntersectionCount(const std::vector<SetId>& a,
                                    const std::vector<SetId>& b);

/// Recall of `answer` w.r.t. ground truth: |answer ∩ truth| / |truth|.
/// 1.0 when the truth is empty.
double Recall(const std::vector<SetId>& answer,
              const std::vector<SetId>& truth);

/// Precision of a candidate list w.r.t. the verified answer it produced:
/// the paper's efficiency metric ia / (ia + ie). `verified_count` is the
/// number of candidates that passed verification; `candidate_count` the
/// filter's candidates (QueryStats::filter_candidates()). 1.0 when there
/// were none.
double CandidatePrecision(std::size_t verified_count,
                          std::size_t candidate_count);

}  // namespace ssr

#endif  // SSR_EVAL_METRICS_H_
