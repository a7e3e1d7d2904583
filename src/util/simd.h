// The library's one SIMD gate, and the set-intersection kernels behind
// IntersectionSize / Jaccard (the verification step of every query).
//
// Dispatch strategy, shared by every SIMD kernel (these and the min-hash
// signing kernels in minhash/simd.h): the vector variants are compiled
// behind the SSR_SIMD CMake option, each under its own
// __attribute__((target(...))) — "avx2", "avx512f,avx512dq" for the
// 8-lane signing kernels, or "avx512f" for the 8×8 intersection kernel.
// Only the kernel sources see the SSR_SIMD_AVX2 define, no global compiler
// flags, so the rest of each translation unit stays baseline x86-64. The
// gate resolves one level per process, the widest the CPU runs: AVX-512
// (Avx512Runtime()), else AVX2 (Avx2Runtime()), else scalar; signing and
// verification both run at that level. When SSR_SIMD is OFF or on non-x86
// targets, the Avx2 and Avx512 entry points forward to the scalar loops.
// SSR_NO_SIMD=1 in the environment forces the scalar paths at runtime; CI
// reruns the parity suites under it.

#ifndef SSR_UTIL_SIMD_H_
#define SSR_UTIL_SIMD_H_

#include <cstddef>

#include "util/types.h"

namespace ssr {
namespace simd {

/// True iff the SIMD kernels were compiled in (SSR_SIMD=ON on x86-64): the
/// AVX2 and AVX-512 ones build together.
bool Avx2Compiled();

/// True iff the AVX2 kernels will actually run: compiled in, the CPU
/// reports AVX2, and SSR_NO_SIMD is not set in the environment. Resolved
/// once per process.
bool Avx2Runtime();

/// True iff the AVX-512 kernels will actually run: Avx2Runtime() holds and
/// the CPU reports AVX-512F and AVX-512DQ. Resolved once per process.
bool Avx512Runtime();

/// |a ∩ b| for two strictly increasing id runs [a, a+na) and [b, b+nb).
///
/// The scalar kernel is a branch-free merge: every step advances the side
/// holding the smaller id (both on a tie), so random ids cost no branch
/// mispredictions. The AVX2 kernel merges 4×4 blocks: it compares four ids
/// of `a` with all four rotations of four ids of `b`, popcounts the
/// equality mask, and advances the block whose last id is smaller (both on
/// a tie), finishing the sub-block tails with the scalar merge. The AVX-512
/// kernel merges 8×8 blocks the same way, comparing each of eight
/// broadcast ids of `a` with eight ids of `b`, and finishes its tails with
/// the AVX2 kernel. All count exactly; tests/util/set_ops_test.cc pins them
/// against std::set_intersection. IntersectionSize (util/set_ops.h) runs
/// the widest level the gate allows.
std::size_t IntersectionSizeScalar(const ElementId* a, std::size_t na,
                                   const ElementId* b, std::size_t nb);
std::size_t IntersectionSizeAvx2(const ElementId* a, std::size_t na,
                                 const ElementId* b, std::size_t nb);
std::size_t IntersectionSizeAvx512(const ElementId* a, std::size_t na,
                                   const ElementId* b, std::size_t nb);

}  // namespace simd
}  // namespace ssr

#endif  // SSR_UTIL_SIMD_H_
