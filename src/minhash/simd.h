// CPU-dispatched signing kernels for the min-hash families.
//
// Each kernel computes, for one set, the running 64-bit minimum per
// permutation lane — the inner loop of signing. Two variants exist per
// kernel: a portable scalar loop and an AVX2 one (4 lanes of 64-bit
// arithmetic). Both perform the exact same mod-2^64 operations, so their
// outputs are bit-identical by construction; the dispatch-parity test
// (tests/minhash/dispatch_parity_test.cc) pins that.
//
// Dispatch strategy: the library's one SIMD gate (util/simd.h), shared with
// the set-intersection kernels. The AVX2 variants carry
// __attribute__((target("avx2"))) and are compiled only when SSR_SIMD is ON;
// the *Auto entry points pick them when Avx2Runtime() holds and degrade to
// the scalar loops otherwise (SSR_SIMD=OFF, non-x86, pre-AVX2 hardware, or
// SSR_NO_SIMD=1 in the environment).

#ifndef SSR_MINHASH_SIMD_H_
#define SSR_MINHASH_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "util/simd.h"
#include "util/types.h"

namespace ssr {
namespace simd {

/// Classic k-permutation kernel: minima[i] = min over e in [elems, elems+n)
/// of Fmix64(e ^ derived[i]) for i in [0, k). `minima` must be
/// pre-initialized by the caller (UINT64_MAX for a fresh set; a previous
/// run's minima to continue a set split across calls).
void ClassicMinScalar(const std::uint64_t* derived, std::size_t k,
                      const ElementId* elems, std::size_t n,
                      std::uint64_t* minima);
void ClassicMinAvx2(const std::uint64_t* derived, std::size_t k,
                    const ElementId* elems, std::size_t n,
                    std::uint64_t* minima);
void ClassicMinAuto(const std::uint64_t* derived, std::size_t k,
                    const ElementId* elems, std::size_t n,
                    std::uint64_t* minima);

/// C-MinHash circulant kernel: minima[i] = min over per-element sigma
/// hashes z in [z, z+n) of CMix(z + i*step) for i in [0, k) — one light
/// mix per (element, permutation), the speed of the family. `step` must be
/// odd.
void CMinScalar(const std::uint64_t* z, std::size_t n, std::uint64_t step,
                std::size_t k, std::uint64_t* minima);
void CMinAvx2(const std::uint64_t* z, std::size_t n, std::uint64_t step,
              std::size_t k, std::uint64_t* minima);
void CMinAuto(const std::uint64_t* z, std::size_t n, std::uint64_t step,
              std::size_t k, std::uint64_t* minima);

/// The scalar CMix, exposed so tests can cross-check kernels per lane.
///
/// An xorshift-sandwiched multiply by a 32-bit odd constant (2^32 / phi).
/// The inputs are already Fmix64-uniform sigma hashes, so the mixer only
/// has to decorrelate the per-lane orderings; a full Fmix64 here would buy
/// nothing the post-selection finalizer doesn't already provide. The
/// multiplier deliberately fits in 32 bits: AVX2 has no 64-bit multiply,
/// and an exact x*M for M < 2^32 takes two VPMULUDQ instead of the three a
/// general 64-bit constant needs — this mixer IS the kernel's cost.
inline std::uint64_t CMix(std::uint64_t u) {
  u ^= u >> 33;
  u *= 0x9e3779b9ULL;
  u ^= u >> 29;
  return u;
}

}  // namespace simd
}  // namespace ssr

#endif  // SSR_MINHASH_SIMD_H_
