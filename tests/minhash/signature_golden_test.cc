// Golden signatures: one FNV-1a digest per family over the signatures of a
// fixed collection, pinned as constants. Every kernel level (scalar, AVX2,
// AVX-512), every host and the SSR_SIMD=OFF build must reproduce them. The
// dispatch-parity test compares the levels of one build with each other;
// this test compares every build with the same numbers, so a kernel or a
// family definition that changes any signature bit fails here.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "minhash/family.h"
#include "minhash/min_hasher.h"
#include "minhash/signature.h"
#include "util/hash.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

// 48 sets: the empty set, sizes 1-9 (every kernel's unroll remainder) and
// runs of 70-329 elements, alternately over the full 64-bit id range and
// over small ids.
std::vector<ElementSet> GoldenCollection() {
  std::vector<ElementSet> sets;
  for (std::uint64_t i = 0; i < 48; ++i) {
    const std::uint64_t size = i < 10 ? i : 7 * i;
    ElementSet set;
    for (std::uint64_t j = 0; j < size; ++j) {
      const std::uint64_t h = SplitMix64(i << 32 | j);
      set.push_back(i % 2 == 0 ? h : h % 5000);
    }
    NormalizeSet(set);
    sets.push_back(set);
  }
  return sets;
}

// FNV-1a over every 16-bit value of every signature, at k = 100 (the
// paper's; a masked 4-lane AVX-512 tail) and k = 13 (tails at both vector
// widths).
std::uint64_t SignatureDigest(MinHashFamilyKind family) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (const std::size_t k : {std::size_t{100}, std::size_t{13}}) {
    MinHashParams params;
    params.num_hashes = k;
    params.value_bits = 16;
    params.seed = 0x601de5ULL;
    params.family = family;
    const MinHasher hasher(params);
    for (const ElementSet& set : GoldenCollection()) {
      const Signature signature = hasher.Sign(set);
      for (const std::uint16_t v : signature.values()) {
        digest = (digest ^ (v & 0xffu)) * 0x100000001b3ULL;
        digest = (digest ^ (v >> 8)) * 0x100000001b3ULL;
      }
    }
  }
  return digest;
}

TEST(SignatureGoldenTest, EveryFamilyReproducesItsPinnedDigest) {
  EXPECT_EQ(SignatureDigest(MinHashFamilyKind::kClassic),
            0xa23339dd87b4fef9ULL);
  EXPECT_EQ(SignatureDigest(MinHashFamilyKind::kSuperMinHash),
            0x6e1712fcfd7fcd00ULL);
  EXPECT_EQ(SignatureDigest(MinHashFamilyKind::kCMinHash),
            0xe57b8df90a39b62fULL);
}

}  // namespace
}  // namespace ssr
