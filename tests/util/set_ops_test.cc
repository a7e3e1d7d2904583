#include "util/set_ops.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/simd.h"

namespace ssr {
namespace {

TEST(SetOpsTest, NormalizeSortsAndDedups) {
  ElementSet s{5, 1, 3, 1, 5, 5};
  NormalizeSet(s);
  EXPECT_EQ(s, (ElementSet{1, 3, 5}));
  EXPECT_TRUE(IsNormalizedSet(s));
}

TEST(SetOpsTest, IsNormalizedDetectsViolations) {
  EXPECT_TRUE(IsNormalizedSet({}));
  EXPECT_TRUE(IsNormalizedSet({7}));
  EXPECT_TRUE(IsNormalizedSet({1, 2, 3}));
  EXPECT_FALSE(IsNormalizedSet({2, 1}));
  EXPECT_FALSE(IsNormalizedSet({1, 1}));
}

TEST(SetOpsTest, IntersectionAndUnionSizes) {
  const ElementSet a{1, 2, 3, 4};
  const ElementSet b{3, 4, 5};
  EXPECT_EQ(IntersectionSize(a, b), 2u);
  EXPECT_EQ(UnionSize(a, b), 5u);
  EXPECT_EQ(IntersectionSize(a, {}), 0u);
  EXPECT_EQ(UnionSize(a, {}), 4u);
}

TEST(SetOpsTest, JaccardDefinitionExamples) {
  EXPECT_DOUBLE_EQ(Jaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(Jaccard({1, 2}, {3, 4}), 0.0);
  EXPECT_DOUBLE_EQ(Jaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(Jaccard({1}, {1, 2, 3, 4}), 0.25);
}

TEST(SetOpsTest, JaccardEmptyConventions) {
  EXPECT_DOUBLE_EQ(Jaccard({}, {}), 1.0);  // identical sets
  EXPECT_DOUBLE_EQ(Jaccard({}, {1}), 0.0);
  EXPECT_DOUBLE_EQ(Jaccard({1}, {}), 0.0);
}

TEST(SetOpsTest, JaccardSymmetric) {
  const ElementSet a{1, 5, 9, 12};
  const ElementSet b{5, 9, 40};
  EXPECT_DOUBLE_EQ(Jaccard(a, b), Jaccard(b, a));
}

TEST(SetOpsTest, JaccardBoundedInUnitInterval) {
  Rng rng(17);
  for (int t = 0; t < 200; ++t) {
    ElementSet a, b;
    for (int i = 0; i < 20; ++i) {
      a.push_back(rng.Uniform(30));
      b.push_back(rng.Uniform(30));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    const double s = Jaccard(a, b);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

// The paper's footnote: d = 1 - sim is a metric. Check the triangle
// inequality on random triples (a property test for the distance).
TEST(SetOpsTest, JaccardDistanceTriangleInequality) {
  Rng rng(18);
  for (int t = 0; t < 300; ++t) {
    ElementSet a, b, c;
    for (int i = 0; i < 15; ++i) {
      a.push_back(rng.Uniform(25));
      b.push_back(rng.Uniform(25));
      c.push_back(rng.Uniform(25));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    NormalizeSet(c);
    const double ab = JaccardDistance(a, b);
    const double bc = JaccardDistance(b, c);
    const double ac = JaccardDistance(a, c);
    EXPECT_LE(ac, ab + bc + 1e-12);
  }
}

TEST(SetOpsTest, IntersectionSizeAgreesWithBruteForce) {
  Rng rng(19);
  for (int t = 0; t < 100; ++t) {
    ElementSet a, b;
    for (int i = 0; i < 25; ++i) {
      a.push_back(rng.Uniform(40));
      b.push_back(rng.Uniform(40));
    }
    NormalizeSet(a);
    NormalizeSet(b);
    std::size_t brute = 0;
    for (ElementId x : a) {
      for (ElementId y : b) {
        if (x == y) ++brute;
      }
    }
    EXPECT_EQ(IntersectionSize(a, b), brute);
  }
}

// ---- Intersection kernels: scalar, AVX2, AVX-512 and the dispatched entry
// point. A level the host cannot run (no AVX2 or AVX-512F/DQ, SSR_NO_SIMD=1,
// or SSR_SIMD=OFF) is skipped; the scalar kernel always runs.

constexpr std::uint64_t kMaxId = std::numeric_limits<std::uint64_t>::max();

// Checks every kernel, the dispatched IntersectionSize and Jaccard against
// std::set_intersection / std::set_union, in both argument orders.
void ExpectAgreesWithStd(const ElementSet& a, const ElementSet& b) {
  ASSERT_TRUE(IsNormalizedSet(a) && IsNormalizedSet(b));
  ElementSet inter, uni;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(inter));
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(uni));
  const Similarity jaccard =
      uni.empty() ? 1.0
                  : static_cast<Similarity>(inter.size()) /
                        static_cast<Similarity>(uni.size());
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    ASSERT_EQ(simd::IntersectionSizeScalar(x->data(), x->size(), y->data(),
                                           y->size()),
              inter.size());
    if (simd::Avx2Runtime()) {
      ASSERT_EQ(simd::IntersectionSizeAvx2(x->data(), x->size(), y->data(),
                                           y->size()),
                inter.size());
    }
    if (simd::Avx512Runtime()) {
      ASSERT_EQ(simd::IntersectionSizeAvx512(x->data(), x->size(), y->data(),
                                             y->size()),
                inter.size());
    }
    ASSERT_EQ(IntersectionSize(*x, *y), inter.size());
    ASSERT_EQ(Jaccard(*x, *y), jaccard);
  }
}

// Where the grid draws ids from: a dense range (fine-grained interleaving),
// all of uint64, or small runs next to 0, 2^63 and UINT64_MAX (where a
// signed block-advance compare would misorder the blocks).
enum class Ids { kDense, kFull, kEdges };

ElementId DrawId(Rng& rng, Ids ids, std::uint64_t span) {
  switch (ids) {
    case Ids::kDense:
      return rng.Uniform(span);
    case Ids::kFull:
      return rng.Next();
    case Ids::kEdges:
      switch (rng.Uniform(3)) {
        case 0:
          return rng.Uniform(span);
        case 1:
          return (std::uint64_t{1} << 63) - span / 2 + rng.Uniform(span);
        default:
          return kMaxId - rng.Uniform(span);
      }
  }
  return 0;
}

// Two normalized sets of sizes na and nb sharing exactly `shared` ids.
std::pair<ElementSet, ElementSet> OverlappingPair(Rng& rng, std::size_t na,
                                                  std::size_t nb,
                                                  std::size_t shared,
                                                  Ids ids) {
  const std::size_t total = na + nb - shared;
  const std::uint64_t span = 2 * total + 8;
  ElementSet pool;
  while (pool.size() < total) {
    pool.push_back(DrawId(rng, ids, span));
    if (pool.size() == total) NormalizeSet(pool);
  }
  rng.Shuffle(pool);
  ElementSet a(pool.begin(), pool.begin() + na);
  ElementSet b(pool.begin(), pool.begin() + shared);
  b.insert(b.end(), pool.begin() + na, pool.end());
  NormalizeSet(a);
  NormalizeSet(b);
  return {std::move(a), std::move(b)};
}

// Sizes 0-67 per side cover every tail length mod 4 and mod 8 on both
// sides and straddle one and two blocks of 8 (and of 16); the overlaps run
// from disjoint to identical (na == nb, shared == na).
TEST(SetOpsTest, IntersectionKernelsMatchStdOnSizeOverlapGrid) {
  Rng rng(20);
  for (std::size_t na = 0; na <= 67; ++na) {
    for (std::size_t nb = 0; nb <= 67; ++nb) {
      const std::size_t small = std::min(na, nb);
      const Ids ids = static_cast<Ids>((na * 68 + nb) % 3);
      for (std::size_t quarter = 0; quarter <= 4; ++quarter) {
        const std::size_t shared = small * quarter / 4;
        if (quarter > 0 && shared == small * (quarter - 1) / 4) continue;
        auto [a, b] = OverlappingPair(rng, na, nb, shared, ids);
        SCOPED_TRACE("na=" + std::to_string(na) + " nb=" +
                     std::to_string(nb) + " shared=" +
                     std::to_string(shared) + " ids=" +
                     std::to_string(static_cast<int>(ids)));
        ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(a, b));
      }
    }
  }
}

ElementSet Range(ElementId first, std::size_t n, ElementId stride = 1) {
  ElementSet s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(first + i * stride);
  return s;
}

TEST(SetOpsTest, IntersectionKernelsMatchStdOnInterleavedSets) {
  for (std::size_t n = 0; n <= 67; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Evens against odds: disjoint, every id between two of the other's.
    ASSERT_NO_FATAL_FAILURE(
        ExpectAgreesWithStd(Range(0, n, 2), Range(1, n, 2)));
    // Multiples of 2 against multiples of 3: a match every sixth id.
    ASSERT_NO_FATAL_FAILURE(
        ExpectAgreesWithStd(Range(0, n, 2), Range(0, n, 3)));
    // One run shifted against the other, at every offset within a block
    // of 4 or of 8, and past one.
    for (ElementId shift = 0; shift <= 17; ++shift) {
      ASSERT_NO_FATAL_FAILURE(
          ExpectAgreesWithStd(Range(0, n), Range(shift, n)));
    }
  }
}

TEST(SetOpsTest, IntersectionKernelsMatchStdOnBlockDisjointSets) {
  for (std::size_t blocks = 0; blocks <= 17; ++blocks) {
    for (std::size_t width : {1, 3, 4, 5, 7, 8, 9, 16}) {
      // Alternating runs of `width` ids: every block of one set falls
      // between two blocks of the other.
      ElementSet a, b;
      for (std::size_t k = 0; k < blocks; ++k) {
        for (std::size_t w = 0; w < width; ++w) {
          a.push_back(2 * k * width + w);
          b.push_back((2 * k + 1) * width + w);
        }
      }
      SCOPED_TRACE("blocks=" + std::to_string(blocks) +
                   " width=" + std::to_string(width));
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(a, b));
      // One set wholly below the other.
      const std::size_t n = blocks * width;
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(Range(0, n), Range(n, n)));
    }
  }
}

TEST(SetOpsTest, IntersectionKernelsMatchStdWhenOneSetIs50xTheOther) {
  Rng rng(21);
  for (std::size_t small = 1; small <= 20; ++small) {
    for (std::size_t shared : {std::size_t{0}, small / 2, small}) {
      for (Ids ids : {Ids::kDense, Ids::kFull, Ids::kEdges}) {
        auto [a, b] = OverlappingPair(rng, small, 50 * small, shared, ids);
        SCOPED_TRACE("small=" + std::to_string(small) +
                     " shared=" + std::to_string(shared) +
                     " ids=" + std::to_string(static_cast<int>(ids)));
        ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(a, b));
      }
    }
  }
}

// IntersectionSize runs the widest level the gate allows; whichever it
// picks, it must equal every level's kernel (the levels the host runs).
TEST(SetOpsTest, IntersectionSizeEqualsEveryLevelKernel) {
  Rng rng(22);
  for (int t = 0; t < 300; ++t) {
    const std::size_t na = rng.Uniform(200);
    const std::size_t nb = rng.Uniform(200);
    const std::size_t shared = rng.Uniform(std::min(na, nb) + 1);
    auto [a, b] = OverlappingPair(rng, na, nb, shared, static_cast<Ids>(t % 3));
    const std::size_t got = IntersectionSize(a, b);
    ASSERT_EQ(got, simd::IntersectionSizeScalar(a.data(), a.size(), b.data(),
                                                b.size()));
    if (simd::Avx2Runtime()) {
      ASSERT_EQ(got, simd::IntersectionSizeAvx2(a.data(), a.size(), b.data(),
                                                b.size()));
    }
    if (simd::Avx512Runtime()) {
      ASSERT_EQ(got, simd::IntersectionSizeAvx512(a.data(), a.size(),
                                                  b.data(), b.size()));
    }
  }
}

TEST(SetOpsTest, IntersectionKernelsMatchStdAtIdExtremes) {
  const ElementId top = std::uint64_t{1} << 63;
  const ElementSet edges{0,       1,          2,          top - 1, top,
                         top + 1, kMaxId - 2, kMaxId - 1, kMaxId};
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(edges, edges));
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd({0, kMaxId}, edges));
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd({0}, {kMaxId}));
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd({kMaxId}, {kMaxId}));
  // A block ending at or above 2^63 against one ending just below: read as
  // signed ids, the advance test would step the wrong block.
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd({1, 2, 3, top, top + 5},
                                              {2, 4, 5, 6, top, top + 5}));
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(
      {0, 1, 2, kMaxId}, {0, 3, 4, 5, 6, 7, 8, kMaxId - 1, kMaxId}));
  // Every subset of `edges` against every other (2^9 × 2^9 pairs).
  std::vector<ElementSet> subsets;
  for (std::uint32_t mask = 0; mask < (1u << edges.size()); ++mask) {
    ElementSet s;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (mask & (1u << i)) s.push_back(edges[i]);
    }
    subsets.push_back(std::move(s));
  }
  for (const ElementSet& a : subsets) {
    for (const ElementSet& b : subsets) {
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithStd(a, b));
    }
  }
}

}  // namespace
}  // namespace ssr
