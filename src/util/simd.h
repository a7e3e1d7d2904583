// The library's one SIMD gate, and the set-intersection kernels behind
// IntersectionSize / Jaccard (the verification step of every query).
//
// Dispatch strategy, shared by every AVX2 kernel (these and the min-hash
// signing kernels in minhash/simd.h): the AVX2 variants are compiled behind
// the SSR_SIMD CMake option using __attribute__((target("avx2"))) — only the
// kernel sources see the SSR_SIMD_AVX2 define, no global compiler flags, so
// the rest of each translation unit stays baseline x86-64 — and selected at
// runtime via Avx2Runtime(). When SSR_SIMD is OFF, on non-x86 targets, or on
// pre-AVX2 hardware, the Avx2 entry points forward to the scalar loops.
// SSR_NO_SIMD=1 in the environment forces the scalar paths at runtime (used
// by benches to measure the fallback).

#ifndef SSR_UTIL_SIMD_H_
#define SSR_UTIL_SIMD_H_

#include <cstddef>

#include "util/types.h"

namespace ssr {
namespace simd {

/// True iff the AVX2 kernels were compiled in (SSR_SIMD=ON on x86-64).
bool Avx2Compiled();

/// True iff the AVX2 kernels will actually run: compiled in, the CPU
/// reports AVX2, and SSR_NO_SIMD is not set in the environment. Resolved
/// once per process.
bool Avx2Runtime();

/// |a ∩ b| for two strictly increasing id runs [a, a+na) and [b, b+nb).
///
/// The scalar kernel is a branch-free merge: every step advances the side
/// holding the smaller id (both on a tie), so random ids cost no branch
/// mispredictions. The AVX2 kernel merges 4×4 blocks: it compares four ids
/// of `a` with all four rotations of four ids of `b`, popcounts the
/// equality mask, and advances the block whose last id is smaller (both on
/// a tie), finishing the sub-block tails with the scalar merge. Both count
/// exactly; tests/util/set_ops_test.cc pins them against
/// std::set_intersection.
std::size_t IntersectionSizeScalar(const ElementId* a, std::size_t na,
                                   const ElementId* b, std::size_t nb);
std::size_t IntersectionSizeAvx2(const ElementId* a, std::size_t na,
                                 const ElementId* b, std::size_t nb);

}  // namespace simd
}  // namespace ssr

#endif  // SSR_UTIL_SIMD_H_
