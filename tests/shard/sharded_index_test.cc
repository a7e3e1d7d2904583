// ShardedSetSimilarityIndex contract tests: partitioning, identity of the
// merged answers with an unsharded reference index at several shard counts
// (candidate membership is a pure function of signatures, so partitioning
// must not change results; recall against brute force is the LSH filters'
// tunable and is bounded, not pinned, here), dynamic routing
// (Insert/Erase), snapshot round-trips, per-shard salvage, and the
// degraded-shard semantics (tagged subsets, never supersets; kFailFast
// errors).

#include "shard/sharded_index.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "storage/set_store.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace shard {
namespace {

constexpr double kEps = 1e-12;  // matches the index's verification slack

SetCollection MakeSets(std::size_t n, std::uint64_t seed = 8787) {
  SetCollection sets;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(6000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    sets.push_back(s);
  }
  return sets;
}

IndexLayout TestLayout() {
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 0}};
  return layout;
}

ShardedIndexOptions TestOptions(std::uint32_t num_shards) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index.embedding.minhash.num_hashes = 80;
  options.index.embedding.minhash.seed = 777;
  options.index.seed = 4242;
  return options;
}

std::vector<SetId> BruteForce(const SetCollection& sets, const ElementSet& q,
                              double s1, double s2) {
  std::vector<SetId> out;
  for (SetId sid = 0; sid < sets.size(); ++sid) {
    const double sim = Jaccard(sets[sid], q);
    if (sim >= s1 - kEps && sim <= s2 + kEps) out.push_back(sid);
  }
  return out;
}

bool IsSubset(const std::vector<SetId>& a, const std::vector<SetId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// The unsharded reference: one SetSimilarityIndex over the same collection
// with the same options. Sharded answers must be bit-identical to it —
// that is the property partitioning must preserve.
struct ReferenceIndex {
  std::unique_ptr<SetStore> store;
  std::unique_ptr<SetSimilarityIndex> index;

  std::vector<SetId> Query(const ElementSet& q, double s1, double s2) const {
    auto r = index->Query(q, s1, s2);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r->sids : std::vector<SetId>{};
  }
};

ReferenceIndex MakeReference(const SetCollection& sets,
                             const ShardedIndexOptions& options) {
  ReferenceIndex ref;
  ref.store = std::make_unique<SetStore>();
  for (const ElementSet& s : sets) {
    auto sid = ref.store->Add(s);
    EXPECT_TRUE(sid.ok());
  }
  auto built = SetSimilarityIndex::Build(*ref.store, TestLayout(),
                                         options.index);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (built.ok()) {
    ref.index =
        std::make_unique<SetSimilarityIndex>(std::move(built).value());
  }
  return ref;
}

TEST(ResolveShardCountTest, ExplicitWinsEnvFallsBackToOne) {
  EXPECT_EQ(ResolveShardCount(3), 3u);
  unsetenv("SSR_SHARDS");
  EXPECT_EQ(ResolveShardCount(0), 1u);
  setenv("SSR_SHARDS", "5", 1);
  EXPECT_EQ(ResolveShardCount(0), 5u);
  EXPECT_EQ(ResolveShardCount(2), 2u) << "explicit beats the env";
  setenv("SSR_SHARDS", "junk", 1);
  EXPECT_EQ(ResolveShardCount(0), 1u);
  setenv("SSR_SHARDS", "-4", 1);
  EXPECT_EQ(ResolveShardCount(0), 1u);
  unsetenv("SSR_SHARDS");
}

TEST(ShardedIndexTest, BuildPartitionsTheCollectionByTheMap) {
  const SetCollection sets = MakeSets(200);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const ShardedSetSimilarityIndex& index = *built;

  EXPECT_EQ(index.num_shards(), 4u);
  EXPECT_EQ(index.num_live_sets(), sets.size());
  EXPECT_EQ(index.shard_map().num_assigned(), sets.size());

  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    ASSERT_NE(index.shard_store(s), nullptr);
    ASSERT_NE(index.shard_index(s), nullptr);
    total += index.shard_store(s)->size();
    // Every local sid routes back to a global sid the map placed here, and
    // the shard's copy is the original set.
    const std::vector<SetId>& to_global = index.global_of_local(s);
    EXPECT_EQ(to_global.size(), index.shard_store(s)->size());
    for (SetId local = 0; local < to_global.size(); ++local) {
      const SetId global = to_global[local];
      EXPECT_EQ(index.shard_map().ShardOf(global), s);
      auto copy = const_cast<SetStore*>(index.shard_store(s))->Get(local);
      ASSERT_TRUE(copy.ok());
      EXPECT_EQ(*copy, sets[global]) << "global " << global;
    }
  }
  EXPECT_EQ(total, sets.size());
  EXPECT_EQ(index.build_stats().per_shard.size(), 4u);
  EXPECT_GT(index.build_stats().modeled_makespan_seconds, 0.0);
}

TEST(ShardedIndexTest, QueryMatchesTheUnshardedIndexAtEveryShardCount) {
  const SetCollection sets = MakeSets(250);
  const ReferenceIndex ref = MakeReference(sets, TestOptions(0));
  ASSERT_NE(ref.index, nullptr);
  Rng rng(11);
  for (std::uint32_t num_shards : {1u, 2u, 4u, 7u}) {
    auto built = ShardedSetSimilarityIndex::Build(sets, TestLayout(),
                                                  TestOptions(num_shards));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    for (int t = 0; t < 25; ++t) {
      const ElementSet& q = sets[rng.Uniform(sets.size())];
      const double s1 = rng.NextDouble() * 0.8;
      const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
      auto r = built->Query(q, s1, s2);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->sids, ref.Query(q, s1, s2))
          << "shards " << num_shards << " query " << t;
      // Precision against brute force: verification admits no false
      // positives, sharded or not.
      EXPECT_TRUE(IsSubset(r->sids, BruteForce(sets, q, s1, s2)))
          << "false positive at shards " << num_shards << " query " << t;
      EXPECT_FALSE(r->partial);
      EXPECT_TRUE(r->degraded_shards.empty());
      EXPECT_TRUE(std::is_sorted(r->sids.begin(), r->sids.end()));
      // The merged stats are the shard-order sum of the per-shard stats.
      std::size_t candidates = 0, size_pruned = 0;
      for (const QueryStats& ps : r->per_shard) {
        candidates += ps.candidates;
        size_pruned += ps.size_pruned;
      }
      EXPECT_EQ(r->stats.candidates, candidates);
      EXPECT_EQ(r->stats.size_pruned, size_pruned);
      EXPECT_EQ(r->stats.results, r->sids.size());
    }
    // Full-range queries take the kFullCollection plan and are exact: the
    // one place brute-force identity is a guarantee, not a recall roll.
    auto full = built->Query(sets[0], 0.0, 1.0);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(full->sids, BruteForce(sets, sets[0], 0.0, 1.0))
        << "shards " << num_shards;
  }
}

TEST(ShardedIndexTest, QueryRejectsInvalidRanges) {
  const SetCollection sets = MakeSets(50);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(2));
  ASSERT_TRUE(built.ok());
  auto r = built->Query(sets[0], 0.9, 0.2);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(ShardedIndexTest, EmptyAndTinyCollectionsWork) {
  auto empty = ShardedSetSimilarityIndex::Build(SetCollection{}, TestLayout(),
                                                TestOptions(7));
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  auto r = empty->Query({1, 2, 3}, 0.0, 1.0);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->sids.empty());

  // Fewer sets than shards: some shards stay empty and must still answer.
  const SetCollection tiny = MakeSets(3);
  auto built =
      ShardedSetSimilarityIndex::Build(tiny, TestLayout(), TestOptions(7));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto all = built->Query(tiny[0], 0.0, 1.0);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->sids, BruteForce(tiny, tiny[0], 0.0, 1.0));
}

TEST(ShardedIndexTest, InsertAndEraseRouteToTheRightShard) {
  SetCollection sets = MakeSets(120);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok());
  ShardedSetSimilarityIndex& index = *built;

  // The unsharded reference sees the identical churn, so post-churn
  // answers must still be bit-identical.
  ReferenceIndex ref = MakeReference(sets, TestOptions(0));
  ASSERT_NE(ref.index, nullptr);

  // Erase of a never-inserted global sid: NotFound, same contract as
  // SetSimilarityIndex::Erase.
  EXPECT_TRUE(index.Erase(5000).IsNotFound());
  EXPECT_TRUE(ref.index->Erase(5000).IsNotFound());

  // Churn: erase a third, insert fresh sids.
  std::vector<bool> alive(sets.size(), true);
  for (SetId sid = 0; sid < sets.size(); sid += 3) {
    ASSERT_TRUE(index.Erase(sid).ok()) << "sid " << sid;
    ASSERT_TRUE(ref.index->Erase(sid).ok()) << "sid " << sid;
    ASSERT_TRUE(ref.store->Delete(sid).ok()) << "sid " << sid;
    alive[sid] = false;
    EXPECT_TRUE(index.Erase(sid).IsNotFound()) << "double erase, sid " << sid;
  }
  const SetCollection extra = MakeSets(40, /*seed=*/12345);
  for (SetId i = 0; i < extra.size(); ++i) {
    const SetId global = static_cast<SetId>(sets.size()) + i;
    ASSERT_TRUE(index.Insert(global, extra[i]).ok()) << "sid " << global;
    EXPECT_TRUE(index.Insert(global, extra[i]).IsAlreadyExists());
    auto stored = ref.store->Add(extra[i]);
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(*stored, global) << "reference store drifted";
    ASSERT_TRUE(ref.index->Insert(global, extra[i]).ok()) << "sid " << global;
  }
  EXPECT_EQ(index.num_live_sets(),
            sets.size() - (sets.size() + 2) / 3 + extra.size());

  // Post-churn collection, for the precision bound.
  SetCollection current = sets;
  current.insert(current.end(), extra.begin(), extra.end());
  std::vector<bool> is_live = alive;
  is_live.resize(current.size(), true);

  Rng rng(77);
  for (int t = 0; t < 20; ++t) {
    const ElementSet& q = current[rng.Uniform(current.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto r = index.Query(q, s1, s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->sids, ref.Query(q, s1, s2)) << "query " << t;
    std::vector<SetId> in_range;
    for (SetId sid = 0; sid < current.size(); ++sid) {
      if (!is_live[sid]) continue;
      const double sim = Jaccard(current[sid], q);
      if (sim >= s1 - kEps && sim <= s2 + kEps) in_range.push_back(sid);
    }
    EXPECT_TRUE(IsSubset(r->sids, in_range))
        << "false positive or dead sid answered; query " << t;
  }
}

TEST(ShardedIndexTest, SaveLoadRoundTripsPlacementAndAnswers) {
  const SetCollection sets = MakeSets(150);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok());
  // A little churn first so holes round-trip too.
  ASSERT_TRUE(built->Erase(7).ok());
  ASSERT_TRUE(built->Erase(70).ok());

  std::stringstream buf;
  ASSERT_TRUE(built->SaveTo(buf).ok());
  auto loaded = ShardedSetSimilarityIndex::Load(buf, TestOptions(0));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->num_shards(), built->num_shards());
  EXPECT_EQ(loaded->num_live_sets(), built->num_live_sets());
  EXPECT_EQ(loaded->shard_map().ContentDigest(),
            built->shard_map().ContentDigest());
  EXPECT_EQ(loaded->ContentDigest(), built->ContentDigest());

  Rng rng(33);
  for (int t = 0; t < 15; ++t) {
    const ElementSet& q = sets[rng.Uniform(sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto a = built->Query(q, s1, s2);
    auto b = loaded->Query(q, s1, s2);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->sids, b->sids) << "query " << t;
  }

  // The loaded index stays dynamic: erase + insert still route correctly.
  ASSERT_TRUE(loaded->Erase(11).ok());
  EXPECT_TRUE(loaded->Erase(7).IsNotFound()) << "hole round-tripped as dead";
  ASSERT_TRUE(loaded->Insert(5000, sets[0]).ok());
  auto again = loaded->Query(sets[0], 0.999, 1.0);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(std::find(again->sids.begin(), again->sids.end(), 5000) !=
              again->sids.end());
}

// Flips bytes inside shard `s`'s store-section payload (which is the
// nested store snapshot, headers included) so the shard is unrecoverable.
std::string CorruptShardStore(std::string blob, std::uint32_t s) {
  const std::string name = "shard" + std::to_string(s) + "_store";
  const std::size_t name_pos = blob.find(name);
  EXPECT_NE(name_pos, std::string::npos);
  // Section layout after the name: u64 payload size, u32 crc, payload. The
  // nested snapshot's own header (magic + version) starts the payload;
  // mangling it defeats both the outer CRC and any inner salvage.
  const std::size_t payload = name_pos + name.size() + 8 + 4;
  for (std::size_t i = 0; i < 16 && payload + i < blob.size(); ++i) {
    blob[payload + i] ^= 0x5a;
  }
  return blob;
}

TEST(ShardedIndexTest, StrictLoadRejectsADamagedShardSection) {
  const SetCollection sets = MakeSets(120);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok());
  std::stringstream buf;
  ASSERT_TRUE(built->SaveTo(buf).ok());
  std::istringstream damaged(CorruptShardStore(buf.str(), 1));
  auto loaded = ShardedSetSimilarityIndex::Load(damaged, TestOptions(0));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(ShardedIndexTest, SalvageQuarantinesOnlyTheDamagedShard) {
  const SetCollection sets = MakeSets(160);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok());
  const std::size_t lost = built->shard_store(1)->size();
  ASSERT_GT(lost, 0u);
  std::stringstream buf;
  ASSERT_TRUE(built->SaveTo(buf).ok());

  RecoveryReport report;
  SnapshotLoadOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  std::istringstream damaged(CorruptShardStore(buf.str(), 1));
  auto loaded =
      ShardedSetSimilarityIndex::Load(damaged, TestOptions(0), salvage);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.records_quarantined, lost);
  EXPECT_TRUE(loaded->shard_degraded(1));
  EXPECT_EQ(loaded->shard_index(1), nullptr);
  EXPECT_EQ(loaded->num_live_sets(), sets.size() - lost);
  for (std::uint32_t s : {0u, 2u, 3u}) {
    EXPECT_FALSE(loaded->shard_degraded(s));
    EXPECT_EQ(loaded->shard_store(s)->size(), built->shard_store(s)->size());
  }

  // Queries keep serving from the healthy shards: tagged partial, exactly
  // the pre-damage answer minus shard 1's sids, never a superset of it.
  Rng rng(55);
  for (int t = 0; t < 15; ++t) {
    const ElementSet& q = sets[rng.Uniform(sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto before = built->Query(q, s1, s2);
    ASSERT_TRUE(before.ok());
    auto r = loaded->Query(q, s1, s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
    EXPECT_TRUE(r->stats.degraded);
    ASSERT_EQ(r->degraded_shards.size(), 1u);
    EXPECT_EQ(r->degraded_shards[0], 1u);
    std::vector<SetId> expect;
    for (SetId sid : before->sids) {
      if (loaded->shard_map().ShardOf(sid) != 1) expect.push_back(sid);
    }
    EXPECT_EQ(r->sids, expect) << "query " << t;
  }

  // The lost shard's sids are known-but-unavailable, not silently gone.
  for (SetId sid = 0; sid < sets.size(); ++sid) {
    if (loaded->shard_map().ShardOf(sid) == 1) {
      EXPECT_TRUE(loaded->Erase(sid).IsUnavailable()) << "sid " << sid;
      break;
    }
  }
}

TEST(ShardedIndexTest, SalvageRebuildsAnIndexWithADamagedIndexSection) {
  const SetCollection sets = MakeSets(120);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(3));
  ASSERT_TRUE(built.ok());
  std::stringstream buf;
  ASSERT_TRUE(built->SaveTo(buf).ok());

  // Damage shard 2's *index* payload. Its store survives, so salvage
  // rebuilds the index from the records: zero data loss, full answers.
  std::string blob = buf.str();
  const std::string name = "shard2_index";
  const std::size_t payload = blob.find(name) + name.size() + 8 + 4;
  for (std::size_t i = 0; i < 16; ++i) blob[payload + i] ^= 0x5a;

  RecoveryReport report;
  SnapshotLoadOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  std::istringstream damaged(blob);
  // The caller's options name another minhash seed: the rebuild must still
  // sign with the embedding the surviving shards were saved under.
  ShardedIndexOptions other_seed = TestOptions(0);
  other_seed.index.embedding.minhash.seed = 31337;
  auto loaded = ShardedSetSimilarityIndex::Load(damaged, other_seed, salvage);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.signatures_rebuilt, built->shard_store(2)->size());
  EXPECT_FALSE(loaded->shard_degraded(2));
  EXPECT_EQ(loaded->num_live_sets(), sets.size());
  EXPECT_TRUE(loaded->shard_index(2)->embedding().params() ==
              TestOptions(0).index.embedding);

  Rng rng(66);
  for (int t = 0; t < 10; ++t) {
    const ElementSet& q = sets[rng.Uniform(sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto before = built->Query(q, s1, s2);
    auto r = loaded->Query(q, s1, s2);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r->partial);
    EXPECT_EQ(r->sids, before->sids) << "query " << t;
  }
}

TEST(ShardedIndexTest, DegradedShardTagsPartialSubsetsUnderPartialPolicy) {
  const SetCollection sets = MakeSets(140);
  auto built =
      ShardedSetSimilarityIndex::Build(sets, TestLayout(), TestOptions(4));
  ASSERT_TRUE(built.ok());

  // Healthy answers first; with shard 2 degraded, each answer must be
  // exactly the healthy answer minus shard 2's sids — a subset of the
  // brute-force truth (never a superset), tagged partial.
  struct Probe {
    ElementSet q;
    double s1, s2;
    std::vector<SetId> healthy;
  };
  std::vector<Probe> probes;
  Rng rng(88);
  for (int t = 0; t < 15; ++t) {
    Probe p;
    p.q = sets[rng.Uniform(sets.size())];
    p.s1 = rng.NextDouble() * 0.8;
    p.s2 = p.s1 + rng.NextDouble() * (1.0 - p.s1);
    auto healthy = built->Query(p.q, p.s1, p.s2);
    ASSERT_TRUE(healthy.ok());
    EXPECT_FALSE(healthy->partial);
    p.healthy = healthy->sids;
    probes.push_back(std::move(p));
  }

  built->SetShardDegraded(2, true);
  for (std::size_t t = 0; t < probes.size(); ++t) {
    const Probe& p = probes[t];
    auto r = built->Query(p.q, p.s1, p.s2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->partial);
    EXPECT_TRUE(r->stats.degraded);
    ASSERT_EQ(r->degraded_shards.size(), 1u);
    EXPECT_EQ(r->degraded_shards[0], 2u);
    EXPECT_TRUE(r->shard_status[2].IsUnavailable());
    EXPECT_TRUE(IsSubset(r->sids, BruteForce(sets, p.q, p.s1, p.s2)))
        << "never a superset; query " << t;
    std::vector<SetId> expect;
    for (SetId sid : p.healthy) {
      if (built->shard_map().ShardOf(sid) != 2) expect.push_back(sid);
    }
    EXPECT_EQ(r->sids, expect) << "query " << t;
  }

  built->SetShardDegraded(2, false);
  auto healed = built->Query(probes[0].q, probes[0].s1, probes[0].s2);
  ASSERT_TRUE(healed.ok());
  EXPECT_FALSE(healed->partial);
  EXPECT_EQ(healed->sids, probes[0].healthy);
}

TEST(ShardedIndexTest, DegradedShardFailsTheQueryUnderFailFast) {
  const SetCollection sets = MakeSets(80);
  ShardedIndexOptions options = TestOptions(4);
  options.on_shard_failure = ShardFailurePolicy::kFailFast;
  auto built = ShardedSetSimilarityIndex::Build(sets, TestLayout(), options);
  ASSERT_TRUE(built.ok());
  built->SetShardDegraded(0, true);
  auto r = built->Query(sets[0], 0.0, 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());
  // Writes to the degraded shard also refuse.
  for (SetId sid = 5000; sid < 5100; ++sid) {
    const Status st = built->Insert(sid, sets[0]);
    if (st.IsUnavailable()) return;  // found a sid routed to shard 0
    ASSERT_TRUE(st.ok());
  }
  FAIL() << "no probe sid routed to the degraded shard";
}

TEST(ShardedIndexTest, BuildsAreDeterministicAcrossThreadCounts) {
  const SetCollection sets = MakeSets(120);
  ShardedIndexOptions serial = TestOptions(3);
  serial.index.num_threads = 1;
  ShardedIndexOptions parallel = TestOptions(3);
  parallel.index.num_threads = 4;
  auto a = ShardedSetSimilarityIndex::Build(sets, TestLayout(), serial);
  auto b = ShardedSetSimilarityIndex::Build(sets, TestLayout(), parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ContentDigest(), b->ContentDigest());
}

}  // namespace
}  // namespace shard
}  // namespace ssr
