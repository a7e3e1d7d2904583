// Signature engine v2 family contracts: every pluggable backend must keep
// the signature shape (k b-bit values, empty-set sentinel), agree with
// itself across Sign / SignOne, stay deterministic across
// instances, and — the property that makes a family usable at all —
// estimate Jaccard within statistical tolerance of the exact value.
// The classic family additionally pins digest compatibility: its output is
// re-derived here from raw HashFamily evaluations, the pre-v2 semantics.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "minhash/estimator.h"
#include "minhash/family.h"
#include "minhash/min_hasher.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

MinHashParams ParamsFor(MinHashFamilyKind family, std::size_t k = 100,
                        unsigned b = 8, std::uint64_t seed = 0xfa1711e5ULL) {
  MinHashParams p;
  p.num_hashes = k;
  p.value_bits = b;
  p.seed = seed;
  p.family = family;
  return p;
}

ElementSet RandomSet(Rng& rng, std::size_t max_size = 80) {
  ElementSet s;
  const std::size_t size = 1 + rng.Uniform(max_size);
  for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(100000));
  NormalizeSet(s);
  if (s.empty()) s.push_back(1);
  return s;
}

TEST(MinHashFamilyTest, NamesAndBytesRoundTrip) {
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    auto from_byte = MinHashFamilyFromByte(static_cast<std::uint8_t>(kind));
    ASSERT_TRUE(from_byte.ok());
    EXPECT_EQ(from_byte.value(), kind);
    auto from_name = MinHashFamilyFromName(MinHashFamilyName(kind));
    ASSERT_TRUE(from_name.ok());
    EXPECT_EQ(from_name.value(), kind);
  }
  auto future = MinHashFamilyFromByte(3);
  ASSERT_FALSE(future.ok());
  EXPECT_TRUE(future.status().IsNotSupported()) << future.status().ToString();
  auto unknown = MinHashFamilyFromName("permuted-congruential");
  ASSERT_FALSE(unknown.ok());
  EXPECT_TRUE(unknown.status().IsInvalidArgument());
}

TEST(MinHashFamilyTest, EmptySetYieldsSentinelInEveryFamily) {
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    for (unsigned b : {1u, 4u, 8u, 16u}) {
      MinHasher hasher(ParamsFor(kind, 32, b));
      const Signature sig = hasher.Sign(ElementSet{});
      ASSERT_EQ(sig.size(), 32u);
      for (std::size_t i = 0; i < sig.size(); ++i) {
        EXPECT_EQ(sig[i], hasher.value_mask())
            << MinHashFamilyName(kind) << " b=" << b << " coordinate " << i;
      }
    }
  }
}

TEST(MinHashFamilyTest, SignOneProjectsTheFullSignature) {
  Rng rng(11);
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    MinHasher hasher(ParamsFor(kind, 64));
    for (int t = 0; t < 5; ++t) {
      const ElementSet s = RandomSet(rng);
      const Signature sig = hasher.Sign(s);
      for (std::size_t i = 0; i < sig.size(); ++i) {
        ASSERT_EQ(hasher.SignOne(s, i), sig[i])
            << MinHashFamilyName(kind) << " coordinate " << i;
      }
    }
  }
}

TEST(MinHashFamilyTest, DeterministicAcrossInstances) {
  Rng rng(13);
  const ElementSet s = RandomSet(rng);
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    MinHasher a(ParamsFor(kind));
    MinHasher b(ParamsFor(kind));
    EXPECT_EQ(a.Sign(s), b.Sign(s)) << MinHashFamilyName(kind);
    MinHasher other_seed(ParamsFor(kind, 100, 8, 0xd1fULL));
    EXPECT_NE(a.Sign(s), other_seed.Sign(s)) << MinHashFamilyName(kind);
  }
}

TEST(MinHashFamilyTest, FamiliesProduceDistinctSignatures) {
  Rng rng(14);
  const ElementSet s = RandomSet(rng, 60);
  MinHasher classic(ParamsFor(MinHashFamilyKind::kClassic));
  MinHasher super(ParamsFor(MinHashFamilyKind::kSuperMinHash));
  MinHasher cmin(ParamsFor(MinHashFamilyKind::kCMinHash));
  EXPECT_NE(classic.Sign(s), super.Sign(s));
  EXPECT_NE(classic.Sign(s), cmin.Sign(s));
  EXPECT_NE(super.Sign(s), cmin.Sign(s));
}

// The digest-compatibility anchor: the classic family must equal the pre-v2
// MinHasher bit for bit. The pre-v2 semantics were: value i = Fmix64(min
// over elements e of HashU64(e, seed_i)) masked to b bits, with seeds from
// HashFamily(k, master_seed) — re-derived here from first principles.
TEST(MinHashFamilyTest, ClassicMatchesPreV2Semantics) {
  Rng rng(15);
  const std::size_t k = 80;
  const std::uint64_t master_seed = 999;
  MinHashParams params = ParamsFor(MinHashFamilyKind::kClassic, k, 8,
                                   master_seed);
  MinHasher hasher(params);
  HashFamily reference(k, master_seed);
  for (int t = 0; t < 10; ++t) {
    const ElementSet s = RandomSet(rng);
    const Signature sig = hasher.Sign(s);
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t min = UINT64_MAX;
      for (ElementId e : s) {
        min = std::min(min, HashU64(e, reference.seed(i)));
      }
      const std::uint16_t expected =
          static_cast<std::uint16_t>(Fmix64(min)) & hasher.value_mask();
      ASSERT_EQ(sig[i], expected) << "coordinate " << i;
    }
  }
}

// Statistical acceptance per family: at k = 100 the collision-corrected
// estimate, averaged over 30 independently drawn pairs of sets with the
// same exact Jaccard, must land within +-0.05 of it. Seeded, so this is a
// deterministic regression, not a flaky sampling test; the expected
// deviation of the 30-pair mean is ~sqrt(J(1-J)/100/30) < 0.01.
TEST(MinHashFamilyTest, EstimatesTrackExactJaccardWithinTolerance) {
  struct Level {
    std::size_t shared, unique_each;
  };
  // Exact J = shared / (shared + 2 * unique_each).
  const Level levels[] = {{20, 40}, {50, 25}, {80, 10}};
  const std::size_t k = 100;
  const unsigned b = 12;
  SimilarityEstimator estimator(b);
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    MinHasher hasher(ParamsFor(kind, k, b));
    for (const Level& level : levels) {
      const double exact =
          static_cast<double>(level.shared) /
          static_cast<double>(level.shared + 2 * level.unique_each);
      double sum = 0.0;
      const int pairs = 30;
      for (int p = 0; p < pairs; ++p) {
        // Disjoint element ranges make the intersection exact by
        // construction; a fresh base per pair makes the draws independent.
        const ElementId base = static_cast<ElementId>(1 + p) * 1000000;
        ElementSet a, bset;
        for (std::size_t i = 0; i < level.shared; ++i) {
          a.push_back(base + i);
          bset.push_back(base + i);
        }
        for (std::size_t i = 0; i < level.unique_each; ++i) {
          a.push_back(base + 300000 + i);
          bset.push_back(base + 600000 + i);
        }
        NormalizeSet(a);
        NormalizeSet(bset);
        sum += estimator.Estimate(hasher.Sign(a), hasher.Sign(bset));
      }
      const double mean = sum / pairs;
      EXPECT_NEAR(mean, exact, 0.05)
          << MinHashFamilyName(kind) << " at exact J = " << exact;
    }
  }
}

}  // namespace
}  // namespace ssr
