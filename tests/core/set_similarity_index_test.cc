#include "core/set_similarity_index.h"

#include <gtest/gtest.h>

#include "baseline/exact_evaluator.h"
#include "eval/metrics.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

// A clustered collection: groups of near-duplicates plus random background,
// giving answers at every similarity level.
SetCollection MakeClusteredCollection(std::size_t n, std::uint64_t seed) {
  SetCollection sets;
  Rng rng(seed);
  while (sets.size() < n) {
    // Seed set for a cluster.
    ElementSet base;
    const std::size_t size = 30 + rng.Uniform(50);
    for (std::size_t i = 0; i < size; ++i) {
      base.push_back(rng.Uniform(20000));
    }
    NormalizeSet(base);
    if (base.empty()) continue;
    sets.push_back(base);
    // A few mutated companions at varying similarity.
    const std::size_t companions = rng.Uniform(5);
    for (std::size_t c = 0; c < companions && sets.size() < n; ++c) {
      ElementSet mutated = base;
      const std::size_t mutations = 1 + rng.Uniform(base.size());
      for (std::size_t m = 0; m < mutations; ++m) {
        mutated[rng.Uniform(mutated.size())] = rng.Uniform(20000);
      }
      NormalizeSet(mutated);
      if (!mutated.empty()) sets.push_back(mutated);
    }
  }
  sets.resize(n);
  return sets;
}

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(std::size_t n, const IndexLayout& layout,
                                      std::size_t num_hashes = 100) {
  auto f = std::make_unique<Fixture>();
  f->sets = MakeClusteredCollection(n, 1234);
  for (const auto& set : f->sets) {
    EXPECT_TRUE(f->store.Add(set).ok());
  }
  IndexOptions options;
  options.embedding.minhash.num_hashes = num_hashes;
  options.embedding.minhash.value_bits = 8;
  options.embedding.minhash.seed = 555;
  options.seed = 777;
  auto index = SetSimilarityIndex::Build(f->store, layout, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  if (!index.ok()) return nullptr;
  f->index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return f;
}

IndexLayout FullLayout() {
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 12, 0},
                   {0.4, FilterKind::kDissimilarity, 12, 0},
                   {0.4, FilterKind::kSimilarity, 12, 0},
                   {0.75, FilterKind::kSimilarity, 12, 0}};
  return layout;
}

TEST(SetSimilarityIndexTest, BuildRequiresValidLayout) {
  SetStore store;
  ASSERT_TRUE(store.Add({1, 2, 3}).ok());
  IndexOptions options;
  IndexLayout empty;
  EXPECT_FALSE(SetSimilarityIndex::Build(store, empty, options).ok());
  IndexLayout bad;
  bad.points = {{0.5, FilterKind::kSimilarity, 0, 0}};
  EXPECT_FALSE(SetSimilarityIndex::Build(store, bad, options).ok());
}

TEST(SetSimilarityIndexTest, BuildIndexesAllLiveSets) {
  auto f = BuildFixture(300, FullLayout());
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->index->num_live_sets(), 300u);
  EXPECT_EQ(f->index->num_filter_indices(), 4u);
}

TEST(SetSimilarityIndexTest, QueryValidatesArguments) {
  auto f = BuildFixture(50, FullLayout());
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->index->Query({1, 2}, 0.8, 0.2).ok());
  EXPECT_FALSE(f->index->Query({1, 2}, -0.1, 0.5).ok());
  EXPECT_FALSE(f->index->Query({1, 2}, 0.1, 1.5).ok());
  EXPECT_FALSE(f->index->Query({2, 1}, 0.1, 0.5).ok());  // unnormalized
  EXPECT_TRUE(f->index->Query({1, 2}, 0.1, 0.5).ok());
}

TEST(SetSimilarityIndexTest, VerifiedAnswersAreSubsetOfTruth) {
  auto f = BuildFixture(400, FullLayout());
  ASSERT_NE(f, nullptr);
  ExactEvaluator exact(f->sets);
  Rng rng(11);
  for (int t = 0; t < 20; ++t) {
    const ElementSet& q = f->sets[rng.Uniform(f->sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + 0.1 + rng.NextDouble() * (1.0 - s1 - 0.1);
    auto result = f->index->Query(q, s1, s2);
    ASSERT_TRUE(result.ok());
    const auto truth = exact.Query(q, s1, s2);
    // Verification guarantees every returned sid is a true answer.
    EXPECT_EQ(SortedIntersectionCount(result->sids, truth),
              result->sids.size());
  }
}

TEST(SetSimilarityIndexTest, HighSimilarityQueriesHaveHighRecall) {
  auto f = BuildFixture(400, FullLayout());
  ASSERT_NE(f, nullptr);
  ExactEvaluator exact(f->sets);
  double recall_sum = 0.0;
  int queries = 0;
  for (SetId sid = 0; sid < 40; ++sid) {
    const ElementSet& q = f->sets[sid];
    auto result = f->index->Query(q, 0.8, 1.0);
    ASSERT_TRUE(result.ok());
    const auto truth = exact.Query(q, 0.8, 1.0);
    recall_sum += Recall(result->sids, truth);
    ++queries;
  }
  EXPECT_GT(recall_sum / queries, 0.9);
}

TEST(SetSimilarityIndexTest, SelfQueryFindsSelf) {
  auto f = BuildFixture(200, FullLayout());
  ASSERT_NE(f, nullptr);
  for (SetId sid = 0; sid < 20; ++sid) {
    auto result = f->index->Query(f->sets[sid], 0.9, 1.0);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(std::binary_search(result->sids.begin(), result->sids.end(),
                                   sid))
        << "self not found for sid " << sid;
  }
}

TEST(SetSimilarityIndexTest, PlanSelectionPerRange) {
  auto f = BuildFixture(200, FullLayout());
  ASSERT_NE(f, nullptr);
  const ElementSet& q = f->sets[0];
  // Entirely below delta: DFI pair.
  auto low = f->index->Query(q, 0.02, 0.1);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->stats.plan, QueryPlanKind::kDfiPair);
  // Entirely above delta: SFI pair.
  auto high = f->index->Query(q, 0.8, 0.95);
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->stats.plan, QueryPlanKind::kSfiPair);
  // Straddling delta: mixed.
  auto mid = f->index->Query(q, 0.3, 0.6);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->stats.plan, QueryPlanKind::kMixed);
  // Full range: no probing.
  auto full = f->index->Query(q, 0.0, 1.0);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats.plan, QueryPlanKind::kFullCollection);
  EXPECT_EQ(full->sids.size(), 200u);
  EXPECT_EQ(full->stats.bucket_accesses, 0u);
}

TEST(SetSimilarityIndexTest, StatsReportEnclosingPoints) {
  auto f = BuildFixture(100, FullLayout());
  ASSERT_NE(f, nullptr);
  auto result = f->index->Query(f->sets[0], 0.5, 0.7);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->stats.lo_point, 0.4);
  EXPECT_DOUBLE_EQ(result->stats.up_point, 0.75);
}

TEST(SetSimilarityIndexTest, QueryCandidatesSkipsVerification) {
  auto f = BuildFixture(200, FullLayout());
  ASSERT_NE(f, nullptr);
  auto candidates = f->index->QueryCandidates(f->sets[0], 0.7, 1.0);
  ASSERT_TRUE(candidates.ok());
  EXPECT_EQ(candidates->stats.sets_fetched, 0u);
  auto verified = f->index->Query(f->sets[0], 0.7, 1.0);
  ASSERT_TRUE(verified.ok());
  EXPECT_LE(verified->sids.size(), candidates->sids.size());
}

TEST(SetSimilarityIndexTest, BucketIoChargedAsRandomReads) {
  auto f = BuildFixture(200, FullLayout());
  ASSERT_NE(f, nullptr);
  f->store.ResetIoAccounting();
  auto result = f->index->Query(f->sets[0], 0.8, 0.95);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.io.random_reads, result->stats.bucket_accesses);
}

TEST(SetSimilarityIndexTest, DynamicInsertMakesSetFindable) {
  auto f = BuildFixture(100, FullLayout());
  ASSERT_NE(f, nullptr);
  // A brand-new set: a clone of set 0 (so it is 1.0-similar to it).
  const ElementSet clone = f->sets[0];
  auto sid = f->store.Add(clone);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(f->index->Insert(sid.value(), clone).ok());
  auto result = f->index->Query(f->sets[0], 0.95, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::binary_search(result->sids.begin(), result->sids.end(),
                                 sid.value()));
  EXPECT_EQ(f->index->num_live_sets(), 101u);
}

TEST(SetSimilarityIndexTest, DynamicEraseRemovesFromAnswers) {
  auto f = BuildFixture(100, FullLayout());
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->index->Erase(0).ok());
  ASSERT_TRUE(f->store.Delete(0).ok());
  auto result = f->index->Query(f->sets[0], 0.9, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(
      std::binary_search(result->sids.begin(), result->sids.end(), SetId{0}));
  EXPECT_TRUE(f->index->Erase(0).IsNotFound());
  EXPECT_EQ(f->index->num_live_sets(), 99u);
}

TEST(SetSimilarityIndexTest, EraseOfNeverInsertedSidIsNotFound) {
  auto f = BuildFixture(20, FullLayout());
  ASSERT_NE(f, nullptr);
  // Beyond the sid capacity entirely: never inserted.
  EXPECT_TRUE(f->index->Erase(20).IsNotFound());
  EXPECT_TRUE(f->index->Erase(10'000).IsNotFound());
  // Inside the capacity but never inserted: a dynamic insert at a sparse
  // sid grows the slot table, leaving a hole of never-live sids below it.
  ASSERT_TRUE(f->index->Insert(30, f->sets[0]).ok());
  EXPECT_TRUE(f->index->Erase(25).IsNotFound());
  EXPECT_TRUE(f->index->Erase(30).ok());
  EXPECT_TRUE(f->index->Erase(30).IsNotFound());
  EXPECT_EQ(f->index->num_live_sets(), 20u);
}

TEST(SetSimilarityIndexTest, InsertRejectsDuplicatesAndBadSets) {
  auto f = BuildFixture(50, FullLayout());
  ASSERT_NE(f, nullptr);
  EXPECT_TRUE(f->index->Insert(0, {1, 2}).IsAlreadyExists());
  EXPECT_TRUE(f->index->Insert(1000, {2, 1}).IsInvalidArgument());
}

TEST(SetSimilarityIndexTest, SignatureAccessor) {
  auto f = BuildFixture(50, FullLayout());
  ASSERT_NE(f, nullptr);
  auto sig = f->index->signature(0);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->size(), 100u);
  EXPECT_EQ(*sig, f->index->embedding().Sign(f->sets[0]));
  EXPECT_FALSE(f->index->signature(9999).has_value());
}

TEST(SetSimilarityIndexTest, SfiOnlyLayoutStillAnswersLowRanges) {
  // The paper's first-attempt layout: SFIs only. Low-similarity queries
  // degenerate to the expensive all-sids plan but must stay correct.
  IndexLayout layout = IndexLayout::UniformSfi({0.3, 0.6, 0.9}, 10);
  auto f = BuildFixture(150, layout);
  ASSERT_NE(f, nullptr);
  ExactEvaluator exact(f->sets);
  const ElementSet& q = f->sets[3];
  auto result = f->index->Query(q, 0.05, 0.2);
  ASSERT_TRUE(result.ok());
  const auto truth = exact.Query(q, 0.05, 0.2);
  EXPECT_EQ(SortedIntersectionCount(result->sids, truth),
            result->sids.size());
  EXPECT_EQ(result->stats.plan, QueryPlanKind::kSfiPair);
}

TEST(SetSimilarityIndexTest, DfiOnlyLayoutCoversHighRanges) {
  IndexLayout layout;
  layout.delta = 1.0;
  layout.points = {{0.2, FilterKind::kDissimilarity, 10, 0},
                   {0.5, FilterKind::kDissimilarity, 10, 0}};
  auto f = BuildFixture(150, layout);
  ASSERT_NE(f, nullptr);
  ExactEvaluator exact(f->sets);
  const ElementSet& q = f->sets[5];
  auto result = f->index->Query(q, 0.7, 1.0);
  ASSERT_TRUE(result.ok());
  const auto truth = exact.Query(q, 0.7, 1.0);
  // The fallback plan uses all live sids minus Dissim(lo): recall must be
  // high because nothing above lo is excluded... modulo filter error at lo.
  EXPECT_GE(Recall(result->sids, truth), 0.9);
}

ElementSet Range(ElementId first, ElementId last) {
  ElementSet out;
  for (ElementId e = first; e <= last; ++e) out.push_back(e);
  return out;
}

TEST(SetSimilarityIndexTest, SizeWindowIsExactOnBoundaries) {
  // Sets whose Jaccard with {1..10} sits exactly on, just inside or just
  // outside the size windows tested below. Jaccard({1..10}, s) equals the
  // size ratio for every subset or superset.
  SetCollection sets = {
      Range(1, 10),                 // the query itself: 1
      Range(1, 5),                  // 5/10 = 0.5
      Range(1, 20),                 // 10/20 = 0.5
      Range(1, 4),                  // 0.4, just outside 0.5
      Range(1, 21),                 // 10/21, just outside 0.5
      Range(1, 3),                  // 3/10 = 0.3
      Range(1, 30),                 // 10/30 = 1/3
      Range(1, 33),                 // 10/33, just outside 1/3
      Range(1, 11),                 // 10/11, outside 1
      Range(101, 110),              // same size, Jaccard 0
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 500},  // same size, 9/11
      {},                           // Jaccard(∅, ∅) = 1
  };
  SetStore store;
  for (const ElementSet& s : sets) ASSERT_TRUE(store.Add(s).ok());
  // One SFI at 0.95: every [σ1 < 0.95, σ2 > 0.95] query plans the full
  // collection, so each live set reaches the window and nothing else
  // filters it.
  IndexOptions options;
  options.embedding.minhash.num_hashes = 64;
  auto index = SetSimilarityIndex::Build(
      store, IndexLayout::UniformSfi({0.95}, 4), options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  ExactEvaluator exact(sets);

  // σ1 = 0.5 + 1e-13 still accepts Jaccard 0.5 (the accept test allows
  // kEps = 1e-12), so the window must keep ratio 0.5 there too.
  std::size_t pruned = 0;
  for (const ElementSet& q : sets) {
    for (double sigma1 : {0.1, 0.3, 1.0 / 3.0, 0.5, 0.5 + 1e-13, 0.9}) {
      auto result = index->Query(q, sigma1, 1.0);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->stats.plan, QueryPlanKind::kFullCollection);
      EXPECT_EQ(result->sids, exact.Query(q, sigma1, 1.0))
          << "|q| = " << q.size() << ", σ1 = " << sigma1;
      EXPECT_EQ(result->stats.candidates + result->stats.size_pruned,
                index->num_live_sets());
      pruned += result->stats.size_pruned;
    }
    // σ1 = 1 plans through the SFI; only equal-size sets pass the window,
    // and an identical set collides in every table.
    auto exact_match = index->Query(q, 1.0, 1.0);
    ASSERT_TRUE(exact_match.ok());
    EXPECT_EQ(exact_match->sids, exact.Query(q, 1.0, 1.0))
        << "|q| = " << q.size();
  }
  EXPECT_GT(pruned, 0u);

  // The boundary sets by name: {1..10} at σ1 = 0.5 fetches only the sets
  // of 5 to 20 elements (sids 0, 1, 2, 8, 9, 10) and keeps sizes 5 and 20.
  auto half = index->Query(sets[0], 0.5, 1.0);
  ASSERT_TRUE(half.ok());
  EXPECT_EQ(half->stats.sets_fetched, 6u);
  EXPECT_EQ(half->stats.size_pruned, 6u);
  EXPECT_EQ(half->sids, (std::vector<SetId>{0, 1, 2, 8, 10}));
  auto empty = index->Query({}, 0.5, 1.0);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->sids, std::vector<SetId>{11});
  EXPECT_EQ(empty->stats.candidates, 1u);
}

}  // namespace
}  // namespace ssr
