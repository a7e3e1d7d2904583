// Min-wise independent permutations (Section 3.1 of the paper; Broder et al.
// 1997, Cohen 1997). A random permutation of the element universe is
// approximated by a seeded 64-bit hash function; min over a set of the hashed
// values gives Pr[min(pi(A)) = min(pi(B))] = Jaccard(A, B). Repeating k times
// yields the min-hash signature, the embedding of the set collection S into
// the k-dimensional vector space V.
//
// Since signature engine v2 the k-permutation scheme is one of several
// pluggable families (minhash/family.h): classic (this header's original
// semantics, digest-compatible), SuperMinHash, and C-MinHash. MinHasher is
// the façade: it owns the family backend selected by MinHashParams::family
// and keeps the original Sign/SignOne surface.

#ifndef SSR_MINHASH_MIN_HASHER_H_
#define SSR_MINHASH_MIN_HASHER_H_

#include <cstdint>
#include <memory>

#include "minhash/family.h"
#include "minhash/signature.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// Configuration of the min-hash embedding (S -> V).
struct MinHashParams {
  /// Number of min-wise permutations k (the dimensionality of V). The paper's
  /// experiments use 100.
  std::size_t num_hashes = 100;

  /// Precision b of each stored min-hash value in bits (1..16). The paper
  /// represents min-hash values "using a number of fixed precision"; the ECC
  /// codeword length is m = 2^b (Hadamard), so b controls the Hamming
  /// dimensionality D = m*k. Two distinct minima collide in their b-bit
  /// representation with probability ~2^-b, which inflates estimated
  /// similarity by at most that amount (see estimator.h for the correction).
  unsigned value_bits = 8;

  /// Master seed for the permutation family. Index build and query must use
  /// identical params (enforced by signature dimension checks).
  std::uint64_t seed = 0x5eedf00dcafebabeULL;

  /// Which signing backend produces the signature. Families are not
  /// interchangeable at query time: the byte is persisted in the index
  /// snapshot and a mismatch surfaces as a typed NotSupported on load.
  MinHashFamilyKind family = MinHashFamilyKind::kClassic;

  /// Validates ranges (num_hashes >= 1, 1 <= value_bits <= 16).
  Status Validate() const;

  bool operator==(const MinHashParams&) const = default;
};

/// Computes min-hash signatures for sets under a fixed signing family.
/// Immutable and thread-compatible after construction (Sign is const and
/// reentrant). Cheaply copyable: copies share the immutable backend.
class MinHasher {
 public:
  /// Builds the signing family. `params` must validate OK; invalid
  /// params are clamped after an assert in debug builds.
  explicit MinHasher(const MinHashParams& params);

  /// Signature of a set: k values of `value_bits` bits each. For the empty
  /// set every coordinate takes the reserved sentinel value (all ones),
  /// making sim(empty, empty) estimate as 1 and sim(empty, s) typically ~0.
  Signature Sign(const ElementSet& set) const;

  /// The b-bit min-hash value of `set` under permutation `i` alone.
  std::uint16_t SignOne(const ElementSet& set, std::size_t i) const;

  const MinHashParams& params() const { return params_; }

  /// The signing backend (family kind, kernels).
  const MinHashFamily& family() const { return *impl_; }

  /// Mask with the low `value_bits` bits set.
  std::uint16_t value_mask() const { return value_mask_; }

 private:
  MinHashParams params_;
  std::shared_ptr<const MinHashFamily> impl_;
  std::uint16_t value_mask_;
};

}  // namespace ssr

#endif  // SSR_MINHASH_MIN_HASHER_H_
