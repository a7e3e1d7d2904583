#include "util/set_ops.h"

#include <algorithm>

#include "util/simd.h"

namespace ssr {

void NormalizeSet(ElementSet& s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
}

bool IsNormalizedSet(const ElementSet& s) {
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i - 1] >= s[i]) return false;
  }
  return true;
}

std::size_t IntersectionSize(const ElementSet& a, const ElementSet& b) {
  if (simd::Avx512Runtime()) {
    return simd::IntersectionSizeAvx512(a.data(), a.size(), b.data(),
                                        b.size());
  }
  if (simd::Avx2Runtime()) {
    return simd::IntersectionSizeAvx2(a.data(), a.size(), b.data(), b.size());
  }
  return simd::IntersectionSizeScalar(a.data(), a.size(), b.data(), b.size());
}

std::size_t UnionSize(const ElementSet& a, const ElementSet& b) {
  return a.size() + b.size() - IntersectionSize(a, b);
}

Similarity Jaccard(const ElementSet& a, const ElementSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const std::size_t inter = IntersectionSize(a, b);
  const std::size_t uni = a.size() + b.size() - inter;
  return static_cast<Similarity>(inter) / static_cast<Similarity>(uni);
}

}  // namespace ssr
