#include "util/simd.h"

#include <bit>
#include <cstdlib>

#if defined(SSR_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ssr {
namespace simd {

bool Avx2Compiled() {
#if defined(SSR_SIMD_AVX2)
  return true;
#else
  return false;
#endif
}

bool Avx2Runtime() {
#if defined(SSR_SIMD_AVX2)
  static const bool available = [] {
    if (const char* env = std::getenv("SSR_NO_SIMD")) {
      if (env[0] != '\0' && env[0] != '0') return false;
    }
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return available;
#else
  return false;
#endif
}

bool Avx512Runtime() {
#if defined(SSR_SIMD_AVX2)
  static const bool available =
      Avx2Runtime() && __builtin_cpu_supports("avx512f") != 0 &&
      __builtin_cpu_supports("avx512dq") != 0;
  return available;
#else
  return false;
#endif
}

std::size_t IntersectionSizeScalar(const ElementId* a, std::size_t na,
                                   const ElementId* b, std::size_t nb) {
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i < na && j < nb) {
    const ElementId x = a[i];
    const ElementId y = b[j];
    count += x == y;
    i += x <= y;
    j += y <= x;
  }
  return count;
}

#if defined(SSR_SIMD_AVX2)

__attribute__((target("avx2"))) std::size_t IntersectionSizeAvx2(
    const ElementId* a, std::size_t na, const ElementId* b, std::size_t nb) {
  // Each id occurs at most once per run, so a lane of `va` equals at most
  // one lane of `vb` across the four rotations, and the OR of the four
  // equality masks has one bit per matched id. Advancing the block whose
  // last id is smaller never skips a match: its ids are all at most that
  // last id, so below every id after the other block. Each pair of blocks
  // meets at most once, so no match is counted twice.
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    const __m256i rot1 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(0, 3, 2, 1));
    const __m256i rot2 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(1, 0, 3, 2));
    const __m256i rot3 = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 3));
    const __m256i hits = _mm256_or_si256(
        _mm256_or_si256(_mm256_cmpeq_epi64(va, vb),
                        _mm256_cmpeq_epi64(va, rot1)),
        _mm256_or_si256(_mm256_cmpeq_epi64(va, rot2),
                        _mm256_cmpeq_epi64(va, rot3)));
    count += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_castsi256_pd(hits)))));
    // Unsigned compares of the blocks' last ids: ids span all of uint64.
    const ElementId a_last = a[i + 3];
    const ElementId b_last = b[j + 3];
    i += a_last <= b_last ? 4 : 0;
    j += b_last <= a_last ? 4 : 0;
  }
  return count + IntersectionSizeScalar(a + i, na - i, b + j, nb - j);
}

__attribute__((target("avx512f"))) std::size_t IntersectionSizeAvx512(
    const ElementId* a, std::size_t na, const ElementId* b, std::size_t nb) {
  // As IntersectionSizeAvx2 with 8×8 blocks: each of the eight ids of `a`'s
  // block, broadcast, is compared with all eight ids of `b`'s block. An id
  // of `a` matches at most one lane and distinct ids match distinct lanes,
  // so the OR of the eight lane masks has one bit per matched id.
  std::size_t count = 0;
  std::size_t i = 0, j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m512i vb = _mm512_loadu_si512(b + j);
    __mmask8 hits = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      hits |= _mm512_cmpeq_epi64_mask(
          _mm512_set1_epi64(static_cast<long long>(a[i + k])), vb);
    }
    count += static_cast<std::size_t>(std::popcount(
        static_cast<unsigned>(hits)));
    const ElementId a_last = a[i + 7];
    const ElementId b_last = b[j + 7];
    i += a_last <= b_last ? 8 : 0;
    j += b_last <= a_last ? 8 : 0;
  }
  return count + IntersectionSizeAvx2(a + i, na - i, b + j, nb - j);
}

#else  // !SSR_SIMD_AVX2

std::size_t IntersectionSizeAvx2(const ElementId* a, std::size_t na,
                                 const ElementId* b, std::size_t nb) {
  return IntersectionSizeScalar(a, na, b, nb);
}

std::size_t IntersectionSizeAvx512(const ElementId* a, std::size_t na,
                                   const ElementId* b, std::size_t nb) {
  return IntersectionSizeScalar(a, na, b, nb);
}

#endif  // SSR_SIMD_AVX2

}  // namespace simd
}  // namespace ssr
