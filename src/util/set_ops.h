// Exact set operations on sorted ElementSets: Jaccard similarity (the paper's
// Definition 1), intersection/union sizes, and normalization helpers. These
// are the ground-truth primitives every approximate structure is validated
// against, and the verification step of the composite index uses them to
// remove false positives.

#ifndef SSR_UTIL_SET_OPS_H_
#define SSR_UTIL_SET_OPS_H_

#include <cstddef>

#include "util/types.h"

namespace ssr {

/// Sorts and deduplicates `s` in place, establishing the ElementSet invariant.
void NormalizeSet(ElementSet& s);

/// Returns true iff `s` is sorted and duplicate-free.
bool IsNormalizedSet(const ElementSet& s);

/// |a ∩ b| for normalized sets: a linear merge, run by the widest block
/// kernel the SIMD gate allows (AVX-512, else AVX2) and by the branch-free
/// scalar one otherwise (util/simd.h).
std::size_t IntersectionSize(const ElementSet& a, const ElementSet& b);

/// |a ∪ b| for normalized sets.
std::size_t UnionSize(const ElementSet& a, const ElementSet& b);

/// Jaccard coefficient sim(a, b) = |a ∩ b| / |a ∪ b| (Definition 1).
/// By convention sim(∅, ∅) = 1 (identical sets).
Similarity Jaccard(const ElementSet& a, const ElementSet& b);

/// Jaccard distance d(a, b) = 1 − sim(a, b); a metric (footnote 1 of the
/// paper).
inline double JaccardDistance(const ElementSet& a, const ElementSet& b) {
  return 1.0 - Jaccard(a, b);
}

}  // namespace ssr

#endif  // SSR_UTIL_SET_OPS_H_
