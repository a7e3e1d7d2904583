// Dispatch parity: the AVX2 and AVX-512 signing kernels must be
// bit-identical to the portable scalar loops on every input — all perform
// the exact same mod-2^64 operations, so any divergence is a kernel bug,
// not rounding. A vector variant is called directly only when the gate says
// it runs here (a direct call on a CPU without the instruction set is an
// illegal instruction); otherwise its test skips. The *Auto entry points
// run in every build, so the CI SIMD-off leg and the SSR_NO_SIMD=1 rerun
// pin the scalar path they fall back to.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "minhash/simd.h"
#include "util/hash.h"
#include "util/random.h"

namespace ssr {
namespace {

std::vector<std::uint64_t> RandomWords(Rng& rng, std::size_t n) {
  std::vector<std::uint64_t> words;
  words.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back(rng.Next());
  }
  return words;
}

std::vector<ElementId> RandomElements(Rng& rng, std::size_t n) {
  std::vector<ElementId> elems;
  elems.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    elems.push_back(static_cast<ElementId>(rng.Next()));
  }
  return elems;
}

// k values straddling both vector widths (4 and 8 lanes): tails of every
// length, exact multiples, and the paper's k = 100.
const std::size_t kLaneCounts[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 100};
// Element counts covering empty sets, single elements, and long runs.
const std::size_t kElementCounts[] = {0, 1, 2, 5, 31, 257};

using ClassicKernel = void (*)(const std::uint64_t*, std::size_t,
                               const ElementId*, std::size_t,
                               std::uint64_t*);
using CMinKernel = void (*)(const std::uint64_t*, std::size_t, std::uint64_t,
                            std::size_t, std::uint64_t*);

// `kernel` against ClassicMinScalar over the lane × element grid, once over
// the whole set and once split in two runs that continue each other's
// minima.
void ExpectClassicMatchesScalar(ClassicKernel kernel, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t k : kLaneCounts) {
    const std::vector<std::uint64_t> derived = RandomWords(rng, k);
    for (std::size_t n : kElementCounts) {
      const std::vector<ElementId> elems = RandomElements(rng, n);
      std::vector<std::uint64_t> scalar(k, UINT64_MAX);
      std::vector<std::uint64_t> whole(k, UINT64_MAX);
      std::vector<std::uint64_t> split(k, UINT64_MAX);
      simd::ClassicMinScalar(derived.data(), k, elems.data(), n,
                             scalar.data());
      kernel(derived.data(), k, elems.data(), n, whole.data());
      kernel(derived.data(), k, elems.data(), n / 2, split.data());
      kernel(derived.data(), k, elems.data() + n / 2, n - n / 2,
             split.data());
      ASSERT_EQ(scalar, whole) << "k=" << k << " n=" << n;
      ASSERT_EQ(scalar, split) << "split k=" << k << " n=" << n;
    }
  }
}

// `kernel` against CMinScalar over the same grid. Both halves of a split
// run see the same lanes, so the same step.
void ExpectCMinMatchesScalar(CMinKernel kernel, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t k : kLaneCounts) {
    for (std::size_t n : kElementCounts) {
      const std::vector<std::uint64_t> z = RandomWords(rng, n);
      const std::uint64_t step = rng.Next() | 1;  // must be odd
      std::vector<std::uint64_t> scalar(k, UINT64_MAX);
      std::vector<std::uint64_t> whole(k, UINT64_MAX);
      std::vector<std::uint64_t> split(k, UINT64_MAX);
      simd::CMinScalar(z.data(), n, step, k, scalar.data());
      kernel(z.data(), n, step, k, whole.data());
      kernel(z.data(), n / 2, step, k, split.data());
      kernel(z.data() + n / 2, n - n / 2, step, k, split.data());
      ASSERT_EQ(scalar, whole) << "k=" << k << " n=" << n;
      ASSERT_EQ(scalar, split) << "split k=" << k << " n=" << n;
    }
  }
}

TEST(DispatchParityTest, ClassicKernelsAreBitIdentical) {
  if (!simd::Avx2Runtime()) GTEST_SKIP() << "AVX2 kernels do not run here";
  ExpectClassicMatchesScalar(simd::ClassicMinAvx2, 21);
}

TEST(DispatchParityTest, ClassicAvx512KernelIsBitIdentical) {
  if (!simd::Avx512Runtime()) {
    GTEST_SKIP() << "AVX-512 kernels do not run here";
  }
  ExpectClassicMatchesScalar(simd::ClassicMinAvx512, 26);
}

TEST(DispatchParityTest, ClassicAutoIsBitIdentical) {
  ExpectClassicMatchesScalar(simd::ClassicMinAuto, 27);
}

TEST(DispatchParityTest, CMinKernelsAreBitIdentical) {
  if (!simd::Avx2Runtime()) GTEST_SKIP() << "AVX2 kernels do not run here";
  ExpectCMinMatchesScalar(simd::CMinAvx2, 22);
}

TEST(DispatchParityTest, CMinAvx512KernelIsBitIdentical) {
  if (!simd::Avx512Runtime()) {
    GTEST_SKIP() << "AVX-512 kernels do not run here";
  }
  ExpectCMinMatchesScalar(simd::CMinAvx512, 28);
}

TEST(DispatchParityTest, CMinAutoIsBitIdentical) {
  ExpectCMinMatchesScalar(simd::CMinAuto, 29);
}

// The scalar kernels themselves are pinned against a from-scratch loop, so
// the parity tests above anchor to the defining formulas rather than to
// whatever both kernels happen to compute.
TEST(DispatchParityTest, ScalarClassicMatchesDefinition) {
  Rng rng(23);
  const std::size_t k = 9, n = 40;
  const std::vector<std::uint64_t> derived = RandomWords(rng, k);
  const std::vector<ElementId> elems = RandomElements(rng, n);
  std::vector<std::uint64_t> minima(k, UINT64_MAX);
  simd::ClassicMinScalar(derived.data(), k, elems.data(), n, minima.data());
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t expected = UINT64_MAX;
    for (ElementId e : elems) {
      expected = std::min(expected, Fmix64(e ^ derived[i]));
    }
    ASSERT_EQ(minima[i], expected) << "lane " << i;
  }
}

TEST(DispatchParityTest, ScalarCMinMatchesDefinition) {
  Rng rng(24);
  const std::size_t k = 9, n = 40;
  const std::vector<std::uint64_t> z = RandomWords(rng, n);
  const std::uint64_t step = rng.Next() | 1;
  std::vector<std::uint64_t> minima(k, UINT64_MAX);
  simd::CMinScalar(z.data(), n, step, k, minima.data());
  for (std::size_t i = 0; i < k; ++i) {
    std::uint64_t expected = UINT64_MAX;
    for (std::uint64_t zj : z) {
      expected = std::min(
          expected, simd::CMix(zj + static_cast<std::uint64_t>(i) * step));
    }
    ASSERT_EQ(minima[i], expected) << "lane " << i;
  }
}

TEST(DispatchParityTest, RuntimeDispatchIsConsistent) {
  // A level runs only if its kernels were compiled in (both levels build
  // under the one SSR_SIMD_AVX2 define), AVX-512 only on top of AVX2, and
  // the queried values are stable across calls (resolved once per process).
  if (simd::Avx2Runtime()) {
    EXPECT_TRUE(simd::Avx2Compiled());
  }
  if (simd::Avx512Runtime()) {
    EXPECT_TRUE(simd::Avx2Compiled());
    EXPECT_TRUE(simd::Avx2Runtime());
  }
  EXPECT_EQ(simd::Avx2Runtime(), simd::Avx2Runtime());
  EXPECT_EQ(simd::Avx512Runtime(), simd::Avx512Runtime());
}

}  // namespace
}  // namespace ssr
