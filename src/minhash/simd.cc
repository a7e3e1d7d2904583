#include "minhash/simd.h"

#include <limits>

#include "util/hash.h"

#if defined(SSR_SIMD_AVX2)
#include <immintrin.h>
#endif

namespace ssr {
namespace simd {

namespace {
constexpr std::uint64_t kFmixM1 = 0xff51afd7ed558ccdULL;
constexpr std::uint64_t kFmixM2 = 0xc4ceb9fe1a85ec53ULL;
}  // namespace

void ClassicMinScalar(const std::uint64_t* derived, std::size_t k,
                      const ElementId* elems, std::size_t n,
                      std::uint64_t* minima) {
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t d = derived[i];
    std::uint64_t mv = minima[i];
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t h = Fmix64(elems[j] ^ d);
      if (h < mv) mv = h;
    }
    minima[i] = mv;
  }
}

void CMinScalar(const std::uint64_t* z, std::size_t n, std::uint64_t step,
                std::size_t k, std::uint64_t* minima) {
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < k; ++i, offset += step) {
    std::uint64_t mv = minima[i];
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t v = CMix(z[j] + offset);
      if (v < mv) mv = v;
    }
    minima[i] = mv;
  }
}

#if defined(SSR_SIMD_AVX2)

namespace {

// 64-bit lane-wise multiply mod 2^64. AVX2 has no native mullo64; the
// exact product is lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32), all
// mod 2^64 — bit-identical to the scalar `*` operator.
__attribute__((target("avx2"))) inline __m256i Mullo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a, b_hi),
                                         _mm256_mul_epu32(a_hi, b));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

// Unsigned 64-bit lane-wise min: flip the sign bit so the signed compare
// orders like the unsigned one, then blend.
__attribute__((target("avx2"))) inline __m256i Min64u(__m256i a, __m256i b) {
  const __m256i bias = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ULL));
  const __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                                        _mm256_xor_si256(b, bias));
  return _mm256_blendv_epi8(a, b, gt);  // a > b ? b : a
}

__attribute__((target("avx2"))) inline __m256i Fmix64Vec(__m256i x) {
  const __m256i m1 = _mm256_set1_epi64x(static_cast<long long>(kFmixM1));
  const __m256i m2 = _mm256_set1_epi64x(static_cast<long long>(kFmixM2));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, m1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64(x, m2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

// Exact x * M mod 2^64 for a multiplier below 2^32: the b_hi cross term of
// the general Mullo64 vanishes, leaving two VPMULUDQ. Bit-identical to the
// scalar `*`.
__attribute__((target("avx2"))) inline __m256i Mullo64By32(__m256i x,
                                                           __m256i m32) {
  const __m256i lo = _mm256_mul_epu32(x, m32);
  const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m32);
  return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

// Min in the sign-biased domain: operands already have the sign bit
// flipped, so the signed compare orders them as unsigned without per-call
// bias xors.
__attribute__((target("avx2"))) inline __m256i MinBiased(__m256i a,
                                                         __m256i v) {
  return _mm256_blendv_epi8(a, v, _mm256_cmpgt_epi64(a, v));
}

__attribute__((target("avx2"))) inline __m256i CMixVec(__m256i x) {
  const __m256i m = _mm256_set1_epi64x(0x9e3779b9LL);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = Mullo64By32(x, m);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 29));
  return x;
}

}  // namespace

__attribute__((target("avx2"))) void ClassicMinAvx2(
    const std::uint64_t* derived, std::size_t k, const ElementId* elems,
    std::size_t n, std::uint64_t* minima) {
  // Vectorize over permutation lanes: each 4-lane chunk keeps its running
  // minima in a register across the whole element run (one load/store pair
  // per chunk, not per element).
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256i dv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(derived + i));
    __m256i mv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(minima + i));
    for (std::size_t j = 0; j < n; ++j) {
      const __m256i ev = _mm256_set1_epi64x(
          static_cast<long long>(elems[j]));
      mv = Min64u(mv, Fmix64Vec(_mm256_xor_si256(ev, dv)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(minima + i), mv);
  }
  if (i < k) ClassicMinScalar(derived + i, k - i, elems, n, minima + i);
}

__attribute__((target("avx2"))) void CMinAvx2(const std::uint64_t* z,
                                              std::size_t n,
                                              std::uint64_t step,
                                              std::size_t k,
                                              std::uint64_t* minima) {
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256i offs = _mm256_set_epi64x(
        static_cast<long long>((i + 3) * step),
        static_cast<long long>((i + 2) * step),
        static_cast<long long>((i + 1) * step),
        static_cast<long long>(i * step));
    __m256i mv = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(minima + i));
    // Four independent accumulators break the cmpgt+blend dependency chain
    // through the running minimum (the element iterations would otherwise
    // serialize on its ~6-cycle latency), and they live in the sign-biased
    // domain so each step pays one bias xor instead of Min64u's two. Min is
    // associative and commutative on integers, so the regrouping is
    // bit-identical to the scalar reduction order.
    const __m256i bias = _mm256_set1_epi64x(
        static_cast<long long>(0x8000000000000000ULL));
    const __m256i ones = _mm256_set1_epi64x(-1);
    __m256i acc0 = _mm256_xor_si256(ones, bias);
    __m256i acc1 = acc0, acc2 = acc0, acc3 = acc0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256i z0 = _mm256_set1_epi64x(static_cast<long long>(z[j]));
      const __m256i z1 = _mm256_set1_epi64x(static_cast<long long>(z[j + 1]));
      const __m256i z2 = _mm256_set1_epi64x(static_cast<long long>(z[j + 2]));
      const __m256i z3 = _mm256_set1_epi64x(static_cast<long long>(z[j + 3]));
      acc0 = MinBiased(acc0, _mm256_xor_si256(
          CMixVec(_mm256_add_epi64(z0, offs)), bias));
      acc1 = MinBiased(acc1, _mm256_xor_si256(
          CMixVec(_mm256_add_epi64(z1, offs)), bias));
      acc2 = MinBiased(acc2, _mm256_xor_si256(
          CMixVec(_mm256_add_epi64(z2, offs)), bias));
      acc3 = MinBiased(acc3, _mm256_xor_si256(
          CMixVec(_mm256_add_epi64(z3, offs)), bias));
    }
    for (; j < n; ++j) {
      const __m256i zv = _mm256_set1_epi64x(static_cast<long long>(z[j]));
      acc0 = MinBiased(acc0, _mm256_xor_si256(
          CMixVec(_mm256_add_epi64(zv, offs)), bias));
    }
    const __m256i acc = _mm256_xor_si256(
        MinBiased(MinBiased(acc0, acc1), MinBiased(acc2, acc3)), bias);
    mv = Min64u(mv, acc);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(minima + i), mv);
  }
  if (i < k) {
    // Scalar tail with the absolute lane offsets (CMinScalar starts its
    // offsets at 0, so it cannot be reused for a lane suffix directly).
    std::uint64_t offset = i * step;
    for (std::size_t t = i; t < k; ++t, offset += step) {
      std::uint64_t mv = minima[t];
      for (std::size_t j = 0; j < n; ++j) {
        const std::uint64_t v = CMix(z[j] + offset);
        if (v < mv) mv = v;
      }
      minima[t] = mv;
    }
  }
}

// GCC 12's AVX-512 intrinsics seed their unused pass-through operand with a
// self-initialized variable (_mm512_undefined_epi32), which trips
// -Wmaybe-uninitialized wherever they inline (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace {

// Lanes [0, r) of an 8-lane chunk, for the masked last chunk when k is not
// a multiple of 8: masked-off lanes are neither loaded nor stored.
inline __mmask8 LaneMask(std::size_t r) {
  return static_cast<__mmask8>(r >= 8 ? 0xffu : (1u << r) - 1u);
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i Fmix64x8(
    __m512i x) {
  const __m512i m1 = _mm512_set1_epi64(static_cast<long long>(kFmixM1));
  const __m512i m2 = _mm512_set1_epi64(static_cast<long long>(kFmixM2));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x, m1);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x, m2);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  return x;
}

__attribute__((target("avx512f,avx512dq"))) inline __m512i CMix64x8(
    __m512i x) {
  const __m512i m = _mm512_set1_epi64(0x9e3779b9LL);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x, m);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 29));
  return x;
}

}  // namespace

__attribute__((target("avx512f,avx512dq"))) void ClassicMinAvx512(
    const std::uint64_t* derived, std::size_t k, const ElementId* elems,
    std::size_t n, std::uint64_t* minima) {
  // As ClassicMinAvx2, 8 lanes wide. Two accumulators take alternate
  // elements, so consecutive VPMINUQs do not wait on each other; min is
  // associative and commutative on integers, so the regrouping is
  // bit-identical to the scalar reduction order.
  for (std::size_t i = 0; i < k; i += 8) {
    const __mmask8 lanes = LaneMask(k - i);
    const __m512i dv = _mm512_maskz_loadu_epi64(lanes, derived + i);
    __m512i acc0 = _mm512_maskz_loadu_epi64(lanes, minima + i);
    __m512i acc1 = acc0;
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
      const __m512i e0 = _mm512_set1_epi64(static_cast<long long>(elems[j]));
      const __m512i e1 =
          _mm512_set1_epi64(static_cast<long long>(elems[j + 1]));
      acc0 = _mm512_min_epu64(acc0, Fmix64x8(_mm512_xor_si512(e0, dv)));
      acc1 = _mm512_min_epu64(acc1, Fmix64x8(_mm512_xor_si512(e1, dv)));
    }
    if (j < n) {
      const __m512i e = _mm512_set1_epi64(static_cast<long long>(elems[j]));
      acc0 = _mm512_min_epu64(acc0, Fmix64x8(_mm512_xor_si512(e, dv)));
    }
    _mm512_mask_storeu_epi64(minima + i, lanes, _mm512_min_epu64(acc0, acc1));
  }
}

__attribute__((target("avx512f,avx512dq"))) void CMinAvx512(
    const std::uint64_t* z, std::size_t n, std::uint64_t step, std::size_t k,
    std::uint64_t* minima) {
  // Lane l of the chunk at i offsets by (i + l) * step mod 2^64, the sum
  // CMinScalar accumulates; each chunk adds 8 * step to every lane. Four
  // accumulators over the elements, as in CMinAvx2.
  const __m512i step_v = _mm512_set1_epi64(static_cast<long long>(step));
  const __m512i advance = _mm512_set1_epi64(static_cast<long long>(8 * step));
  __m512i offs =
      _mm512_mullo_epi64(_mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0), step_v);
  for (std::size_t i = 0; i < k;
       i += 8, offs = _mm512_add_epi64(offs, advance)) {
    const __mmask8 lanes = LaneMask(k - i);
    __m512i acc0 = _mm512_maskz_loadu_epi64(lanes, minima + i);
    __m512i acc1 = acc0, acc2 = acc0, acc3 = acc0;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m512i z0 = _mm512_set1_epi64(static_cast<long long>(z[j]));
      const __m512i z1 = _mm512_set1_epi64(static_cast<long long>(z[j + 1]));
      const __m512i z2 = _mm512_set1_epi64(static_cast<long long>(z[j + 2]));
      const __m512i z3 = _mm512_set1_epi64(static_cast<long long>(z[j + 3]));
      acc0 = _mm512_min_epu64(acc0, CMix64x8(_mm512_add_epi64(z0, offs)));
      acc1 = _mm512_min_epu64(acc1, CMix64x8(_mm512_add_epi64(z1, offs)));
      acc2 = _mm512_min_epu64(acc2, CMix64x8(_mm512_add_epi64(z2, offs)));
      acc3 = _mm512_min_epu64(acc3, CMix64x8(_mm512_add_epi64(z3, offs)));
    }
    for (; j < n; ++j) {
      const __m512i zv = _mm512_set1_epi64(static_cast<long long>(z[j]));
      acc0 = _mm512_min_epu64(acc0, CMix64x8(_mm512_add_epi64(zv, offs)));
    }
    _mm512_mask_storeu_epi64(
        minima + i, lanes,
        _mm512_min_epu64(_mm512_min_epu64(acc0, acc1),
                         _mm512_min_epu64(acc2, acc3)));
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#else  // !SSR_SIMD_AVX2

void ClassicMinAvx2(const std::uint64_t* derived, std::size_t k,
                    const ElementId* elems, std::size_t n,
                    std::uint64_t* minima) {
  ClassicMinScalar(derived, k, elems, n, minima);
}

void CMinAvx2(const std::uint64_t* z, std::size_t n, std::uint64_t step,
              std::size_t k, std::uint64_t* minima) {
  CMinScalar(z, n, step, k, minima);
}

void ClassicMinAvx512(const std::uint64_t* derived, std::size_t k,
                      const ElementId* elems, std::size_t n,
                      std::uint64_t* minima) {
  ClassicMinScalar(derived, k, elems, n, minima);
}

void CMinAvx512(const std::uint64_t* z, std::size_t n, std::uint64_t step,
                std::size_t k, std::uint64_t* minima) {
  CMinScalar(z, n, step, k, minima);
}

#endif  // SSR_SIMD_AVX2

void ClassicMinAuto(const std::uint64_t* derived, std::size_t k,
                    const ElementId* elems, std::size_t n,
                    std::uint64_t* minima) {
  if (Avx512Runtime()) {
    ClassicMinAvx512(derived, k, elems, n, minima);
  } else if (Avx2Runtime()) {
    ClassicMinAvx2(derived, k, elems, n, minima);
  } else {
    ClassicMinScalar(derived, k, elems, n, minima);
  }
}

void CMinAuto(const std::uint64_t* z, std::size_t n, std::uint64_t step,
              std::size_t k, std::uint64_t* minima) {
  if (Avx512Runtime()) {
    CMinAvx512(z, n, step, k, minima);
  } else if (Avx2Runtime()) {
    CMinAvx2(z, n, step, k, minima);
  } else {
    CMinScalar(z, n, step, k, minima);
  }
}

}  // namespace simd
}  // namespace ssr
