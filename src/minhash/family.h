// Signature engine v2: pluggable min-hash families (DESIGN.md §15).
//
// Every family maps a set to the same shape of signature — k values of
// value_bits bits, empty set -> all-ones sentinel — and keeps the defining
// property Pr[sig_A[i] == sig_B[i]] ≈ J(A, B) (exactly J for classic, up to
// the b-bit fingerprint collision handled by SimilarityEstimator). They
// differ in how much hashing that costs:
//
//   kClassic      k independent permutations: one Fmix64 per (element, i).
//                 The paper's §3.1 scheme, bit-identical to the pre-v2
//                 MinHasher (digest compatibility anchor).
//   kSuperMinHash Ertl 2017: one pass over the elements, a per-element
//                 partial Fisher-Yates draw scatters each element into
//                 O(log k) expected slots with early stopping — ~O(n + k
//                 log n) total work instead of n*k. Lower estimator
//                 variance than classic for J < 1. Scalar-only (the
//                 adaptive loop does not vectorize).
//   kCMinHash     Li & Li 2021 circulant reuse: one sigma hash per element,
//                 then lane i uses a cheap one-multiply mix of
//                 sigma(e) + i*step — k-fold hash reuse, AVX2-friendly.
//
// The family byte is persisted in the index snapshot (and therefore in the
// WAL checkpoint and every sharded shard section), so a store signed under
// one family can never be silently probed under another.

#ifndef SSR_MINHASH_FAMILY_H_
#define SSR_MINHASH_FAMILY_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "util/hash.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// Which min-hash family signs the collection. The numeric values are the
/// persisted wire format (snapshot "options" section) — append-only.
enum class MinHashFamilyKind : std::uint8_t {
  kClassic = 0,
  kSuperMinHash = 1,
  kCMinHash = 2,
};

/// Human-readable family name ("classic" / "superminhash" / "cminhash").
std::string_view MinHashFamilyName(MinHashFamilyKind kind);

/// Decodes a persisted family byte; an out-of-range value is a typed
/// NotSupported (a snapshot from a newer engine, not corruption — the CRC
/// already vouched for the bytes).
Result<MinHashFamilyKind> MinHashFamilyFromByte(std::uint8_t byte);

/// Parses a family name as accepted on bench/test command lines and env
/// vars; InvalidArgument on unknown names.
Result<MinHashFamilyKind> MinHashFamilyFromName(std::string_view name);

/// All families, for sweep loops.
inline constexpr MinHashFamilyKind kAllMinHashFamilies[] = {
    MinHashFamilyKind::kClassic,
    MinHashFamilyKind::kSuperMinHash,
    MinHashFamilyKind::kCMinHash,
};

/// A min-hash signing backend. Implementations are immutable after
/// construction and reentrant: SignInto may be called concurrently from
/// the parallel builder's workers and the batch-query executor.
class MinHashFamily {
 public:
  virtual ~MinHashFamily() = default;

  virtual MinHashFamilyKind kind() const = 0;

  /// Writes the k b-bit values of `set`'s signature to out[0..k). The
  /// empty set yields the all-ones sentinel in every coordinate.
  virtual void SignInto(const ElementSet& set, std::uint16_t* out) const = 0;

  /// The b-bit value of coordinate `i` alone. The classic family computes
  /// just that permutation; the entangled families (SuperMinHash, C-MinHash
  /// share state across coordinates) sign fully into thread-local scratch
  /// and project — same values, SignOne is just not a fast path for them.
  virtual std::uint16_t SignOne(const ElementSet& set, std::size_t i) const;

  std::size_t num_hashes() const { return num_hashes_; }
  std::uint16_t value_mask() const { return value_mask_; }

 protected:
  MinHashFamily(std::size_t num_hashes, unsigned value_bits)
      : num_hashes_(num_hashes),
        value_mask_(static_cast<std::uint16_t>((1u << value_bits) - 1u)) {}

  std::size_t num_hashes_;
  std::uint16_t value_mask_;
};

/// Builds the backend for (kind, k, value_bits, seed). `value_bits` must
/// already be validated/sanitized by the caller (MinHasher).
std::unique_ptr<MinHashFamily> MakeMinHashFamily(MinHashFamilyKind kind,
                                                 std::size_t num_hashes,
                                                 unsigned value_bits,
                                                 std::uint64_t seed);

}  // namespace ssr

#endif  // SSR_MINHASH_FAMILY_H_
