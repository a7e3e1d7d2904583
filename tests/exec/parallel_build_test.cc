// The parallel-build determinism contract: for the same store, layout, and
// seeds, SetSimilarityIndex::Build with any num_threads produces an index
// bit-identical to the serial build — same signatures, same hash-table
// contents (order included), same query answers. Verified through
// ContentDigest (order-sensitive over buckets + signatures) plus direct
// signature and answer comparison.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

SetCollection MakeCollection(std::size_t n, std::uint64_t seed) {
  SetCollection sets;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(8000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    sets.push_back(std::move(s));
  }
  return sets;
}

IndexLayout MixedLayout() {
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 2}};
  return layout;
}

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildWithThreads(std::size_t num_threads,
                                          const SetCollection& sets) {
  auto f = std::make_unique<Fixture>();
  f->sets = sets;
  for (const auto& set : f->sets) {
    EXPECT_TRUE(f->store.Add(set).ok());
  }
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 424242;
  options.seed = 9001;
  options.num_threads = num_threads;
  auto index = SetSimilarityIndex::Build(f->store, MixedLayout(), options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  if (!index.ok()) return nullptr;
  f->index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return f;
}

TEST(ParallelBuildTest, AnyThreadCountDigestsEqualToSerial) {
  const SetCollection sets = MakeCollection(400, 777);
  auto serial = BuildWithThreads(1, sets);
  ASSERT_NE(serial, nullptr);
  const std::uint64_t want = serial->index->ContentDigest();
  for (std::size_t threads : {std::size_t{2}, std::size_t{3}, std::size_t{4},
                              std::size_t{8}}) {
    auto parallel = BuildWithThreads(threads, sets);
    ASSERT_NE(parallel, nullptr);
    EXPECT_EQ(parallel->index->ContentDigest(), want)
        << "num_threads=" << threads;
    EXPECT_EQ(parallel->index->build_stats().threads, threads);
  }
}

TEST(ParallelBuildTest, SignaturesBitIdenticalToSerial) {
  const SetCollection sets = MakeCollection(250, 31337);
  auto serial = BuildWithThreads(1, sets);
  auto parallel = BuildWithThreads(4, sets);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  for (SetId sid = 0; sid < sets.size(); ++sid) {
    auto a = serial->index->signature(sid);
    auto b = parallel->index->signature(sid);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*a, *b) << "sid " << sid;
  }
}

TEST(ParallelBuildTest, QueryAnswersIdenticalToSerial) {
  const SetCollection sets = MakeCollection(300, 555);
  auto serial = BuildWithThreads(1, sets);
  auto parallel = BuildWithThreads(4, sets);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  Rng rng(99);
  for (int t = 0; t < 30; ++t) {
    const ElementSet& q = sets[rng.Uniform(sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto a = serial->index->Query(q, s1, s2);
    auto b = parallel->index->Query(q, s1, s2);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->sids, b->sids) << "query " << t;
    // Probing is structural, so even the cost counters must agree.
    EXPECT_EQ(a->stats.bucket_accesses, b->stats.bucket_accesses);
    EXPECT_EQ(a->stats.sids_scanned, b->stats.sids_scanned);
    EXPECT_EQ(a->stats.candidates, b->stats.candidates);
    EXPECT_EQ(a->stats.size_pruned, b->stats.size_pruned);
  }
}

TEST(ParallelBuildTest, BuildStatsFilledByParallelBuild) {
  const SetCollection sets = MakeCollection(300, 2024);
  auto f = BuildWithThreads(4, sets);
  ASSERT_NE(f, nullptr);
  const BuildStats& stats = f->index->build_stats();
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.sets_indexed, 300u);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.sign_cpu_seconds, 0.0);
  EXPECT_GT(stats.insert_cpu_seconds, 0.0);
  EXPECT_GT(stats.makespan_seconds, 0.0);
  // The busiest worker's share never exceeds the phase total.
  EXPECT_LE(stats.sign_makespan_seconds, stats.sign_cpu_seconds + 1e-12);
  EXPECT_LE(stats.insert_makespan_seconds, stats.insert_cpu_seconds + 1e-12);
}

TEST(ParallelBuildTest, DigestDetectsContentDifferences) {
  // Sanity of the instrument itself: different seeds (hence different
  // samplers and signatures) must not digest equal.
  const SetCollection sets = MakeCollection(150, 4);
  auto a = BuildWithThreads(1, sets);
  ASSERT_NE(a, nullptr);
  auto b = std::make_unique<Fixture>();
  b->sets = sets;
  for (const auto& set : b->sets) ASSERT_TRUE(b->store.Add(set).ok());
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 424242;
  options.seed = 9002;  // differs from BuildWithThreads
  auto index = SetSimilarityIndex::Build(b->store, MixedLayout(), options);
  ASSERT_TRUE(index.ok());
  EXPECT_NE(a->index->ContentDigest(), index->ContentDigest());
}

TEST(ParallelBuildTest, DynamicInsertAfterParallelBuildMatchesSerial) {
  // The parallel build must leave the index in the same dynamic state the
  // serial build does: inserting one more set converges to the same digest.
  const SetCollection sets = MakeCollection(200, 123);
  auto serial = BuildWithThreads(1, sets);
  auto parallel = BuildWithThreads(4, sets);
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(parallel, nullptr);
  const ElementSet extra = sets[0];  // a clone, similar to set 0
  auto sid_a = serial->store.Add(extra);
  auto sid_b = parallel->store.Add(extra);
  ASSERT_TRUE(sid_a.ok());
  ASSERT_TRUE(sid_b.ok());
  ASSERT_EQ(sid_a.value(), sid_b.value());
  ASSERT_TRUE(serial->index->Insert(sid_a.value(), extra).ok());
  ASSERT_TRUE(parallel->index->Insert(sid_b.value(), extra).ok());
  EXPECT_EQ(serial->index->ContentDigest(), parallel->index->ContentDigest());
}

}  // namespace
}  // namespace ssr
