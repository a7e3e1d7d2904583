// The parallel-build determinism contract, per signing family: every
// MinHashFamily backend must keep the serial == parallel == sharded digest
// identity. The parallel sign phase hands each worker whole blocks of
// sets, so this also pins that blocking never reorders or perturbs
// signatures for any family — on SIMD and scalar builds alike.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "shard/sharded_index.h"
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
  layout.points = {{0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 2}};
  return layout;
}

IndexOptions OptionsFor(MinHashFamilyKind family, std::size_t num_threads) {
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 424242;
  options.embedding.minhash.family = family;
  options.seed = 9001;
  options.num_threads = num_threads;
  return options;
}

std::unique_ptr<SetSimilarityIndex> BuildOne(SetStore& store,
                                             MinHashFamilyKind family,
                                             std::size_t num_threads) {
  auto index =
      SetSimilarityIndex::Build(store, MixedLayout(), OptionsFor(family,
                                                                 num_threads));
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  if (!index.ok()) return nullptr;
  return std::make_unique<SetSimilarityIndex>(std::move(index).value());
}

TEST(FamilyBuildParityTest, SerialAndParallelDigestsAgreePerFamily) {
  const SetCollection sets = MakeCollection(300, 777);
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    SetStore serial_store;
    for (const auto& s : sets) ASSERT_TRUE(serial_store.Add(s).ok());
    auto serial = BuildOne(serial_store, family, 1);
    ASSERT_NE(serial, nullptr);
    const std::uint64_t want = serial->ContentDigest();
    for (std::size_t threads : {std::size_t{2}, std::size_t{4},
                                std::size_t{7}}) {
      SetStore store;
      for (const auto& s : sets) ASSERT_TRUE(store.Add(s).ok());
      auto parallel = BuildOne(store, family, threads);
      ASSERT_NE(parallel, nullptr);
      EXPECT_EQ(parallel->ContentDigest(), want)
          << MinHashFamilyName(family) << " num_threads=" << threads;
      for (SetId sid = 0; sid < sets.size(); ++sid) {
        ASSERT_EQ(parallel->signature(sid), serial->signature(sid))
            << MinHashFamilyName(family) << " num_threads=" << threads
            << " sid " << sid;
      }
    }
  }
}

TEST(FamilyBuildParityTest, ShardedBuildsAreThreadCountInvariantPerFamily) {
  const SetCollection sets = MakeCollection(200, 778);
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    shard::ShardedIndexOptions serial_options;
    serial_options.num_shards = 3;
    serial_options.index = OptionsFor(family, 1);
    auto serial =
        shard::ShardedSetSimilarityIndex::Build(sets, MixedLayout(),
                                                serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    shard::ShardedIndexOptions parallel_options = serial_options;
    parallel_options.index.num_threads = 4;
    auto parallel =
        shard::ShardedSetSimilarityIndex::Build(sets, MixedLayout(),
                                                parallel_options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->ContentDigest(), serial->ContentDigest())
        << MinHashFamilyName(family);
  }
}

// The sharded executor must agree with the serial one query for query
// under every family (the difftest's identity contract, pinned here as a
// fast deterministic slice so tier-1 covers non-classic families even when
// the difftest runs its default classic schedule).
TEST(FamilyBuildParityTest, ShardedAnswersMatchSerialPerFamily) {
  const SetCollection sets = MakeCollection(150, 779);
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    SetStore store;
    for (const auto& s : sets) ASSERT_TRUE(store.Add(s).ok());
    auto serial = BuildOne(store, family, 2);
    ASSERT_NE(serial, nullptr);

    shard::ShardedIndexOptions options;
    options.num_shards = 4;
    options.index = OptionsFor(family, 2);
    auto sharded =
        shard::ShardedSetSimilarityIndex::Build(sets, MixedLayout(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

    Rng rng(41);
    for (int t = 0; t < 15; ++t) {
      const ElementSet& q = sets[rng.Uniform(sets.size())];
      const double s1 = rng.NextDouble() * 0.8;
      const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
      auto a = serial->Query(q, s1, s2);
      auto b = sharded->Query(q, s1, s2);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->sids, b->sids)
          << MinHashFamilyName(family) << " range [" << s1 << ", " << s2
          << "]";
    }
  }
}

}  // namespace
}  // namespace ssr
