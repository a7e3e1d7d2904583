#include "core/sfi.h"

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

Embedding MakeEmbedding(std::size_t k = 100, unsigned bits = 8,
                        std::uint64_t seed = 81) {
  EmbeddingParams p;
  p.minhash.num_hashes = k;
  p.minhash.value_bits = bits;
  p.minhash.seed = seed;
  auto e = Embedding::Create(p);
  EXPECT_TRUE(e.ok());
  return std::move(e).value();
}

// Builds a set sharing exactly `inter` elements with `query` and padded
// with `priv` private elements drawn from a disjoint id range.
ElementSet SetWithOverlap(const ElementSet& query, std::size_t inter,
                          std::size_t priv, ElementId private_base) {
  ElementSet s(query.begin(), query.begin() + inter);
  for (std::size_t i = 0; i < priv; ++i) {
    s.push_back(private_base + i);
  }
  NormalizeSet(s);
  return s;
}

TEST(SfiTest, CreateValidatesParams) {
  Embedding e = MakeEmbedding(10);
  SfiParams params;
  params.s_star = 0.0;
  EXPECT_FALSE(SimilarityFilterIndex::Create(e, params, 100).ok());
  params.s_star = 1.0;
  EXPECT_FALSE(SimilarityFilterIndex::Create(e, params, 100).ok());
  params.s_star = 0.8;
  params.l = 0;
  EXPECT_FALSE(SimilarityFilterIndex::Create(e, params, 100).ok());
  params.l = 4;
  EXPECT_TRUE(SimilarityFilterIndex::Create(e, params, 100).ok());
}

TEST(SfiTest, InsertEraseLifecycle) {
  Embedding e = MakeEmbedding(20);
  SfiParams params;
  params.s_star = 0.8;
  params.l = 6;
  auto sfi = SimilarityFilterIndex::Create(e, params, 10);
  ASSERT_TRUE(sfi.ok());
  const ElementSet set{1, 2, 3, 4, 5};
  const Signature sig = e.Sign(set);
  sfi->Insert(7, sig);
  EXPECT_EQ(sfi->size(), 1u);
  // Probing with the same signature must find the sid in every table.
  auto found = sfi->SimVector(sig);
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], 7u);
  EXPECT_EQ(sfi->Erase(7, sig), sfi->l());
  EXPECT_EQ(sfi->size(), 0u);
  EXPECT_TRUE(sfi->SimVector(sig).empty());
}

TEST(SfiTest, IdenticalVectorAlwaysRetrieved) {
  // p_{r,l}(1) = 1: an identical signature collides in every table.
  Embedding e = MakeEmbedding(50);
  SfiParams params;
  params.s_star = 0.9;
  params.l = 10;
  auto sfi = SimilarityFilterIndex::Create(e, params, 100);
  ASSERT_TRUE(sfi.ok());
  Rng rng(9);
  for (SetId sid = 0; sid < 50; ++sid) {
    ElementSet set;
    for (int i = 0; i < 20; ++i) set.push_back(rng.Uniform(10000));
    NormalizeSet(set);
    sfi->Insert(sid, e.Sign(set));
    const auto result = sfi->SimVector(e.Sign(set));
    EXPECT_TRUE(std::binary_search(result.begin(), result.end(), sid));
  }
}

TEST(SfiTest, ProbeStatsReportTableCount) {
  Embedding e = MakeEmbedding(30);
  SfiParams params;
  params.s_star = 0.8;
  params.l = 7;
  auto sfi = SimilarityFilterIndex::Create(e, params, 50);
  ASSERT_TRUE(sfi.ok());
  const Signature sig = e.Sign({1, 2, 3});
  SfiProbeStats stats;
  sfi->SimVector(sig, false, &stats);
  EXPECT_EQ(stats.bucket_accesses, 7u);
  EXPECT_GE(stats.bucket_pages, 7u);
}

TEST(SfiTest, RSolvedFromTurningPoint) {
  Embedding e = MakeEmbedding(100);
  SfiParams params;
  params.s_star = 0.9;  // Hamming-space turning point
  params.l = 20;
  auto sfi = SimilarityFilterIndex::Create(e, params, 100);
  ASSERT_TRUE(sfi.ok());
  EXPECT_NEAR(sfi->filter().TurningPoint(), 0.9, 0.05);
  EXPECT_GE(sfi->r(), 10u);  // steep filters need many bits
}

TEST(SfiTest, ExplicitROverridesSolver) {
  Embedding e = MakeEmbedding(10);
  SfiParams params;
  params.s_star = 0.9;
  params.l = 5;
  params.r = 3;
  auto sfi = SimilarityFilterIndex::Create(e, params, 100);
  ASSERT_TRUE(sfi.ok());
  EXPECT_EQ(sfi->r(), 3u);
}

// The core probabilistic contract: retrieval rates track the analytic
// p_{r,l}(s_H) curve — near 1 well above the turning point, near 0 well
// below it.
TEST(SfiTest, RetrievalRatesSeparateSimilarities) {
  Embedding e = MakeEmbedding(100, 8, 97);
  // Set-similarity threshold σ* = 0.7 -> Hamming s* = 0.85.
  SfiParams params;
  params.s_star = e.SetToHammingSimilarity(0.7);
  params.l = 15;
  auto sfi = SimilarityFilterIndex::Create(e, params, 1000);
  ASSERT_TRUE(sfi.ok());

  // Query: 120 elements.
  ElementSet query;
  for (ElementId x = 0; x < 120; ++x) query.push_back(x);

  // Population A: sim ~0.9 (inter 114, priv 13 -> 114/133 ≈ 0.857... use
  // inter=114, total 127: 114/133). Compute exact targets instead:
  // equal-size overlap: |A|=|Q|=120, inter=i -> sim = i/(240-i).
  // sim 0.9 -> i = 113.7 ≈ 114; sim 0.3 -> i = 55.4 ≈ 55; sim 0.1 -> i=21.8.
  struct Pop {
    std::size_t inter;
    double expect_min, expect_max;
  };
  const Pop pops[] = {
      {114, 0.85, 1.01},  // very similar: should almost always be found
      {22, 0.0, 0.25},    // dissimilar: should almost never be found
  };
  const int kPerPop = 150;
  SetId next_sid = 0;
  std::vector<std::pair<SetId, bool>> expectations;  // sid -> should-find
  std::vector<std::vector<SetId>> pop_sids(2);
  for (int pi = 0; pi < 2; ++pi) {
    for (int c = 0; c < kPerPop; ++c) {
      const ElementSet s = SetWithOverlap(
          query, pops[pi].inter, 120 - pops[pi].inter,
          1000000 + static_cast<ElementId>(next_sid) * 1000);
      sfi->Insert(next_sid, e.Sign(s));
      pop_sids[pi].push_back(next_sid);
      ++next_sid;
    }
  }
  const auto result = sfi->SimVector(e.Sign(query));
  for (int pi = 0; pi < 2; ++pi) {
    int found = 0;
    for (SetId sid : pop_sids[pi]) {
      if (std::binary_search(result.begin(), result.end(), sid)) ++found;
    }
    const double rate = static_cast<double>(found) / kPerPop;
    EXPECT_GE(rate, pops[pi].expect_min) << "population " << pi;
    EXPECT_LE(rate, pops[pi].expect_max) << "population " << pi;
  }
}

TEST(SfiTest, ComplementedProbeMatchesComplementSemantics) {
  // SimVector(q, complemented=true) must behave as probing with the
  // complement: an inserted signature is found by its complement probe only
  // if the keys flip to match, which for a self-probe never happens (all
  // sampled bits differ).
  Embedding e = MakeEmbedding(50);
  SfiParams params;
  params.s_star = 0.6;
  params.l = 8;
  auto sfi = SimilarityFilterIndex::Create(e, params, 100);
  ASSERT_TRUE(sfi.ok());
  const Signature sig = e.Sign({1, 2, 3, 4});
  sfi->Insert(1, sig);
  EXPECT_FALSE(sfi->SimVector(sig, true).size() == 1 &&
               sfi->SimVector(sig, false).empty());
  // Self complement probe: every sampled bit differs -> no collision
  // unless r is tiny and bucket hashing collides; with r >= 2 this is
  // overwhelmingly empty.
  if (sfi->r() >= 8) {
    EXPECT_TRUE(sfi->SimVector(sig, true).empty());
  }
}

TEST(SfiTest, SidsPerPageMatchesPageSize) {
  EXPECT_EQ(SimilarityFilterIndex::SidsPerPage(), 4096u / sizeof(SetId));
}

// ---- SortUniqueSids, the probe union behind SimVectorInto.

std::vector<SetId> StdSortUnique(std::vector<SetId> sids) {
  std::sort(sids.begin(), sids.end());
  sids.erase(std::unique(sids.begin(), sids.end()), sids.end());
  return sids;
}

// A multiset of `n` sids below `span`, each repeated up to three times, in
// random order, plus the word-boundary sids that fit below `span` and the
// span's last sid.
std::vector<SetId> RandomMultiset(Rng& rng, std::size_t n, SetId span) {
  std::vector<SetId> sids;
  for (std::size_t i = 0; i < n; ++i) {
    const SetId sid = static_cast<SetId>(rng.Uniform(span));
    for (std::uint64_t c = rng.Uniform(3); c-- > 0;) sids.push_back(sid);
    sids.push_back(sid);
  }
  for (SetId sid : {0u, 63u, 64u, 65u, 127u, 128u}) {
    if (sid < span) sids.push_back(sid);
  }
  sids.push_back(span - 1);
  rng.Shuffle(sids);
  return sids;
}

void ExpectUnionMatchesStd(const std::vector<SetId>& input) {
  std::vector<SetId> sids = input;
  SortUniqueSids(&sids);
  ASSERT_EQ(sids, StdSortUnique(input));
}

TEST(SortUniqueSidsTest, MatchesStdSortUniqueOnRandomMultisets) {
  Rng rng(61);
  for (SetId span : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u, 4096u,
                     10000u, 70001u}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5},
                          std::size_t{64}, std::size_t{300},
                          std::size_t{9650}}) {
      SCOPED_TRACE("span=" + std::to_string(span) +
                   " n=" + std::to_string(n));
      ASSERT_NO_FATAL_FAILURE(
          ExpectUnionMatchesStd(RandomMultiset(rng, n, span)));
    }
  }
}

TEST(SortUniqueSidsTest, WordBoundariesAndEdges) {
  ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd({}));
  ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd({0}));
  ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd({0, 0, 0}));
  ASSERT_NO_FATAL_FAILURE(
      ExpectUnionMatchesStd({128, 127, 65, 64, 63, 0, 64, 63, 128}));
  // Every bit of one word, then of two adjacent words.
  std::vector<SetId> full;
  for (SetId sid = 192; sid-- > 64;) full.push_back(sid);
  ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd(full));
  // One sid far above the rest: the bitmap grows to it.
  ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd({5, 1u << 20, 7, 5}));
}

// The bitmap is per thread and must be all-zero after every call: a bit
// left set would surface as a sid the next call never passed in.
TEST(SortUniqueSidsTest, BackToBackCallsOnOneThreadStartClean) {
  Rng rng(62);
  for (int round = 0; round < 50; ++round) {
    const SetId span = static_cast<SetId>(1 + rng.Uniform(5000));
    ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd(
        RandomMultiset(rng, rng.Uniform(3000), span)));
    // Disjoint from everything the previous call set.
    std::vector<SetId> above = {span + 64, span + 1, span + 64};
    ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd(above));
    ASSERT_NO_FATAL_FAILURE(ExpectUnionMatchesStd({}));
  }
}

TEST(SortUniqueSidsTest, ThreadsUnionAtOnce) {
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng(static_cast<std::uint64_t>(100 + t));
      for (int round = 0; round < 200; ++round) {
        const SetId span = static_cast<SetId>(1 + rng.Uniform(20000));
        const std::vector<SetId> input =
            RandomMultiset(rng, rng.Uniform(2000), span);
        std::vector<SetId> sids = input;
        SortUniqueSids(&sids);
        if (sids != StdSortUnique(input)) ++mismatches[t];
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace ssr
