// Online shard rebalance: the move state machine (BeginRebalance /
// StepRebalance / FinishRebalance) under grow and shrink, the
// mid-rebalance answer contract (tagged `rebalancing` + `partial`, never
// wrong — pinned by test, single-threaded between moves, with concurrent
// reader threads, and with a whole rebalance inside one held scatter on
// each query path), writer routing during a drain, and the
// crash-during-rebalance matrix: kill the write path at every move-record
// boundary, recover from (post-Begin checkpoint, captured per-shard WALs),
// and assert every sid's placement is fully old or fully new — never
// split — with a re-run RebalanceTo converging the remainder.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "exec/epoch.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace shard {
namespace {

ElementSet RandomSet(Rng& rng) {
  ElementSet s;
  const std::size_t size = 8 + rng.Uniform(24);
  for (std::size_t i = 0; i < size; ++i) s.push_back(rng.Uniform(5000));
  NormalizeSet(s);
  if (s.empty()) s.push_back(1);
  return s;
}

IndexLayout TestLayout() {
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points = {{0.3, FilterKind::kDissimilarity, 6, 0},
                   {0.3, FilterKind::kSimilarity, 6, 0},
                   {0.7, FilterKind::kSimilarity, 6, 3}};
  return layout;
}

ShardedIndexOptions TestOptions(std::uint32_t num_shards) {
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index.embedding.minhash.num_hashes = 64;
  options.index.embedding.minhash.seed = 999;
  options.index.seed = 1234;
  return options;
}

SetCollection MakeSets(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  SetCollection sets;
  for (std::size_t i = 0; i < n; ++i) sets.push_back(RandomSet(rng));
  return sets;
}

ShardedSetSimilarityIndex BuildAt(const SetCollection& sets,
                                  std::uint32_t num_shards) {
  auto built = ShardedSetSimilarityIndex::Build(sets, TestLayout(),
                                                TestOptions(num_shards));
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// Every shard whose store currently holds `sid`'s payload. The rebalance
// invariants say this is exactly one shard at every quiescent point.
std::vector<std::uint32_t> LocationsOf(const ShardedSetSimilarityIndex& index,
                                       SetId sid) {
  std::vector<std::uint32_t> where;
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    const SetStore* store = index.shard_store(s);
    if (store == nullptr) continue;
    const std::vector<SetId> locals = index.global_of_local(s);
    for (SetId local = 0; local < locals.size(); ++local) {
      if (locals[local] == sid && store->Contains(local)) {
        where.push_back(s);
        break;
      }
    }
  }
  return where;
}

std::vector<SetId> AllSids(std::size_t n) {
  std::vector<SetId> sids(n);
  for (std::size_t i = 0; i < n; ++i) sids[i] = static_cast<SetId>(i);
  return sids;
}

#ifdef SSR_NO_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "built with SSR_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_INJECTION() (void)0
#endif

// ---------------------------------------------------------------------------
// Offline equivalence: RebalanceTo lands on the same placement and the same
// answers as building fresh at the target shard count.
// ---------------------------------------------------------------------------

class RebalanceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Default().Reset(); }
  void TearDown() override { fault::FaultInjector::Default().Reset(); }
};

void CheckRebalancedMatchesFresh(std::uint32_t from, std::uint32_t to) {
  const SetCollection sets = MakeSets(60, 0x9e3a11 + from * 131 + to);
  ShardedSetSimilarityIndex index = BuildAt(sets, from);
  index.EnableConcurrentWrites();
  ShardedSetSimilarityIndex fresh = BuildAt(sets, to);

  ASSERT_TRUE(index.RebalanceTo(to).ok());
  EXPECT_EQ(index.num_shards(), to);
  EXPECT_EQ(index.num_live_sets(), sets.size());
  EXPECT_FALSE(index.rebalancing());

  // Placement is exactly the fresh HRW vote under the target count.
  EXPECT_EQ(index.shard_map().ContentDigest(),
            fresh.shard_map().ContentDigest());
  for (SetId sid = 0; sid < sets.size(); ++sid) {
    ASSERT_EQ(LocationsOf(index, sid),
              std::vector<std::uint32_t>{fresh.shard_map().ShardOf(sid)})
        << "sid " << sid;
  }

  // And answers are identical to the fresh build, untagged.
  Rng rng(4242);
  for (int i = 0; i < 8; ++i) {
    const ElementSet q = RandomSet(rng);
    const double lo = (i % 2 == 0) ? 0.0 : 0.5;
    auto a = index.Query(q, lo, 1.0);
    auto b = fresh.Query(q, lo, 1.0);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->sids, b->sids) << "query " << i;
    EXPECT_FALSE(a->partial);
    EXPECT_FALSE(a->rebalancing);
  }
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, GrowMatchesFreshBuildAtTargetCount) {
  CheckRebalancedMatchesFresh(2, 5);
}

TEST_F(RebalanceTest, ShrinkMatchesFreshBuildAtTargetCount) {
  CheckRebalancedMatchesFresh(5, 2);
}

TEST_F(RebalanceTest, ShrinkToOneShardDrainsEverything) {
  CheckRebalancedMatchesFresh(4, 1);
}

TEST_F(RebalanceTest, SameCountRebalanceIsANoOp) {
  const SetCollection sets = MakeSets(30, 77);
  ShardedSetSimilarityIndex index = BuildAt(sets, 3);
  index.EnableConcurrentWrites();
  const std::uint64_t before = index.ContentDigest();
  ASSERT_TRUE(index.RebalanceTo(3).ok());
  EXPECT_EQ(index.ContentDigest(), before);
}

// ---------------------------------------------------------------------------
// State-machine bookkeeping and precondition errors.
// ---------------------------------------------------------------------------

TEST_F(RebalanceTest, StatusTracksTheMoveStateMachine) {
  const SetCollection sets = MakeSets(50, 555);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  RebalanceStatus idle = index.rebalance_status();
  EXPECT_FALSE(idle.active);

  ASSERT_TRUE(index.BeginRebalance(4).ok());
  RebalanceStatus begun = index.rebalance_status();
  EXPECT_TRUE(begun.active);
  EXPECT_EQ(begun.target_shards, 4u);
  EXPECT_GT(begun.moves_planned, 0u);
  EXPECT_EQ(begun.moves_done + begun.moves_skipped, 0u);
  EXPECT_TRUE(index.rebalancing());
  // Growing publishes the new topology immediately.
  EXPECT_EQ(index.num_shards(), 4u);

  // Drain one move at a time: remaining strictly decreases to zero.
  std::size_t last_remaining = begun.moves_planned;
  for (;;) {
    auto remaining = index.StepRebalance(1);
    ASSERT_TRUE(remaining.ok()) << remaining.status().ToString();
    if (last_remaining > 0) {
      EXPECT_EQ(*remaining, last_remaining - 1);
    }
    last_remaining = *remaining;
    if (*remaining == 0) break;
  }
  RebalanceStatus drained = index.rebalance_status();
  EXPECT_EQ(drained.moves_done + drained.moves_skipped,
            drained.moves_planned);

  ASSERT_TRUE(index.FinishRebalance().ok());
  EXPECT_FALSE(index.rebalance_status().active);
  EXPECT_FALSE(index.rebalancing());
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, PreconditionViolationsAreTyped) {
  const SetCollection sets = MakeSets(30, 31337);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  // No rebalance active: Step and Finish refuse.
  EXPECT_TRUE(index.StepRebalance(1).status().IsFailedPrecondition());
  EXPECT_TRUE(index.FinishRebalance().IsFailedPrecondition());

  // A degraded shard blocks Begin (its sids cannot be moved safely).
  index.SetShardDegraded(1, true);
  EXPECT_TRUE(index.BeginRebalance(3).IsUnavailable());
  index.SetShardDegraded(1, false);

  ASSERT_TRUE(index.BeginRebalance(3).ok());
  // Double Begin refuses; Finish with pending moves refuses.
  EXPECT_TRUE(index.BeginRebalance(4).IsFailedPrecondition());
  if (index.rebalance_status().moves_planned > 0) {
    EXPECT_TRUE(index.FinishRebalance().IsFailedPrecondition());
  }
  for (;;) {
    auto remaining = index.StepRebalance(16);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  EXPECT_TRUE(index.FinishRebalance().ok());
  index.epoch_manager()->Quiesce();
}

// ---------------------------------------------------------------------------
// The acceptance contract: a query issued mid-rebalance returns a tagged,
// never-wrong answer.
// ---------------------------------------------------------------------------

// Single-threaded slice: between any two moves the index is quiescent, so
// the answer must be tagged (a rebalance is active) AND still exactly
// right — the tag is conservative, the data is not.
TEST_F(RebalanceTest, MidRebalanceAnswersAreTaggedAndExactBetweenMoves) {
  const SetCollection sets = MakeSets(60, 808);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();
  const ElementSet probe = sets[7];

  auto reference = index.Query(probe, 0.0, 1.0);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->sids, AllSids(sets.size()));

  ASSERT_TRUE(index.BeginRebalance(5).ok());
  for (;;) {
    auto answer = index.Query(probe, 0.0, 1.0);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer->rebalancing)
        << "mid-rebalance answer must be tagged rebalancing";
    EXPECT_TRUE(answer->partial)
        << "mid-rebalance answer must be tagged partial (conservative)";
    EXPECT_EQ(answer->sids, reference->sids)
        << "quiescent-point answer diverged mid-rebalance";
    auto remaining = index.StepRebalance(1);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());

  auto after = index.Query(probe, 0.0, 1.0);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->rebalancing);
  EXPECT_FALSE(after->partial);
  EXPECT_EQ(after->sids, reference->sids);
  index.epoch_manager()->Quiesce();
}

// Concurrent slice: reader threads (serial gather and the router) query
// continuously while the driver thread grows then shrinks the index. Every
// answer must be well-formed and a subset of the true answer — never wrong,
// never a superset — and tagged whenever it overlapped the rebalance.
TEST_F(RebalanceTest, ConcurrentReadersDuringRebalanceNeverSeeAWrongAnswer) {
  const SetCollection sets = MakeSets(80, 2468);
  exec::EpochManager em;
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites(&em);
  const std::vector<SetId> truth = AllSids(sets.size());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> tagged_answers{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(5000 + r);
      QueryRouterOptions router_options;
      router_options.num_threads = 2;
      QueryRouter router(index, router_options);
      while (!stop.load(std::memory_order_relaxed)) {
        const ElementSet q = sets[rng.Uniform(sets.size())];
        auto serial = index.Query(q, 0.0, 1.0);
        auto routed = router.Query(q, 0.0, 1.0);
        for (const auto* res : {&serial, &routed}) {
          ASSERT_TRUE(res->ok()) << res->status().ToString();
          const ShardedQueryResult& a = **res;
          ASSERT_TRUE(std::is_sorted(a.sids.begin(), a.sids.end()));
          ASSERT_TRUE(std::adjacent_find(a.sids.begin(), a.sids.end()) ==
                      a.sids.end());
          // Never wrong: every returned sid is real (a subset of truth).
          ASSERT_TRUE(std::includes(truth.begin(), truth.end(),
                                    a.sids.begin(), a.sids.end()))
              << "concurrent answer returned a sid that does not exist";
          if (a.rebalancing) {
            ASSERT_TRUE(a.partial)
                << "rebalancing answers must be tagged partial too";
            tagged_answers.fetch_add(1, std::memory_order_relaxed);
          } else {
            // Untagged means no rebalance overlapped the scatter: exact.
            ASSERT_EQ(a.sids, truth) << "an untagged answer is missing sids";
          }
        }
      }
    });
  }

  // The driver: grow 2 -> 5, then shrink 5 -> 3, stepping in small bites so
  // readers overlap many commit windows.
  for (std::uint32_t target : {5u, 3u}) {
    ASSERT_TRUE(index.BeginRebalance(target).ok());
    for (;;) {
      auto remaining = index.StepRebalance(2);
      ASSERT_TRUE(remaining.ok()) << remaining.status().ToString();
      if (*remaining == 0) break;
      std::this_thread::yield();
    }
    // Every answer issued while the rebalance is active is tagged; hold the
    // window open until at least one reader observed it, so the tagging
    // assertion below is deterministic.
    while (tagged_answers.load(std::memory_order_relaxed) == 0) {
      std::this_thread::yield();
    }
    ASSERT_TRUE(index.FinishRebalance().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  em.Quiesce();

  EXPECT_GT(tagged_answers.load(), 0u)
      << "no reader ever overlapped the rebalance — tagging is unpinned";
  auto final_answer = index.Query(sets[0], 0.0, 1.0);
  ASSERT_TRUE(final_answer.ok());
  EXPECT_EQ(final_answer->sids, truth);
  EXPECT_EQ(index.num_shards(), 3u);
}

// One router held across a finished grow and a finished shrink: its
// per-(worker, shard) views follow the shard slots, so routed answers and
// per-shard stats stay those of the serial scatter at every shard count,
// and shards the grow added get their own latency histograms.
TEST_F(RebalanceTest, RouterHeldAcrossRebalanceMatchesSerial) {
  const SetCollection sets = MakeSets(80, 97531);
  exec::EpochManager em;
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites(&em);
  QueryRouterOptions router_options;
  router_options.num_threads = 2;
  QueryRouter router(index, router_options);

  const auto check_routed_equals_serial = [&](const char* phase) {
    Rng rng(6161);
    for (int i = 0; i < 16; ++i) {
      const ElementSet& q = sets[rng.Uniform(sets.size())];
      const double lo = (i % 4) * 0.25;
      auto serial = index.Query(q, lo, 1.0);
      auto routed = router.Query(q, lo, 1.0);
      ASSERT_TRUE(serial.ok() && routed.ok()) << phase;
      EXPECT_EQ(routed->sids, serial->sids) << phase << ", query " << i;
      EXPECT_EQ(routed->partial, serial->partial) << phase;
      EXPECT_EQ(routed->rebalancing, serial->rebalancing) << phase;
      EXPECT_EQ(routed->degraded_shards, serial->degraded_shards) << phase;
      ASSERT_EQ(routed->per_shard.size(), index.num_shards()) << phase;
      ASSERT_EQ(serial->per_shard.size(), index.num_shards()) << phase;
      for (std::size_t s = 0; s < serial->per_shard.size(); ++s) {
        const QueryStats& a = routed->per_shard[s];
        const QueryStats& b = serial->per_shard[s];
        EXPECT_EQ(a.candidates, b.candidates) << phase << ", shard " << s;
        EXPECT_EQ(a.size_pruned, b.size_pruned) << phase << ", shard " << s;
        EXPECT_EQ(a.bucket_accesses, b.bucket_accesses) << phase;
        EXPECT_EQ(a.sids_scanned, b.sids_scanned) << phase;
        EXPECT_EQ(a.sets_fetched, b.sets_fetched) << phase;
        EXPECT_EQ(a.results, b.results) << phase;
      }
    }
  };
  const auto shard_latency = [&](std::uint32_t s) {
    return obs::MetricsRegistry::Default().GetHistogram(
        "ssr_router_shard_latency_micros",
        router.metrics_scope() + "/shard/" + std::to_string(s),
        obs::LatencyBoundsMicros());
  };

  check_routed_equals_serial("P=2");
  ASSERT_TRUE(index.RebalanceTo(4).ok());
  ASSERT_EQ(index.num_shards(), 4u);
  check_routed_equals_serial("grown to P=4");
  for (std::uint32_t s : {2u, 3u}) {
    EXPECT_GT(shard_latency(s)->count(), 0u) << "grown shard " << s;
  }
  ASSERT_TRUE(index.RebalanceTo(1).ok());
  ASSERT_EQ(index.num_shards(), 1u);
  check_routed_equals_serial("shrunk to P=1");
  em.Quiesce();
}

// A shrink-retired slot is not a failed shard: it was verified empty before
// FinishRebalance nulled it, so a reader that raced the shrink (holding the
// pre-shrink count) must keep succeeding even under kFailFast — the
// strictest policy, where a genuinely degraded shard fails the whole query.
TEST_F(RebalanceTest, ShrinkRetiredSlotsDoNotTripFailFastReaders) {
  const SetCollection sets = MakeSets(80, 1357);
  exec::EpochManager em;
  ShardedIndexOptions options = TestOptions(5);
  options.on_shard_failure = ShardFailurePolicy::kFailFast;
  auto built = ShardedSetSimilarityIndex::Build(sets, TestLayout(), options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ShardedSetSimilarityIndex index = std::move(built).value();
  index.EnableConcurrentWrites(&em);
  const std::vector<SetId> truth = AllSids(sets.size());

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(7100 + r);
      QueryRouterOptions router_options;
      router_options.num_threads = 2;
      QueryRouter router(index, router_options);
      while (!stop.load(std::memory_order_relaxed)) {
        const ElementSet q = sets[rng.Uniform(sets.size())];
        auto serial = index.Query(q, 0.0, 1.0);
        auto routed = router.Query(q, 0.0, 1.0);
        for (const auto* res : {&serial, &routed}) {
          // No shard is ever degraded here, so kFailFast must never fire:
          // a nulled slot a racing reader finds past the shrink is retired
          // (provably empty), not failed.
          ASSERT_TRUE(res->ok())
              << "kFailFast tripped by a shrink-retired slot: "
              << res->status().ToString();
          ASSERT_TRUE(std::includes(truth.begin(), truth.end(),
                                    (*res)->sids.begin(), (*res)->sids.end()));
        }
      }
    });
  }

  // Repeated shrinks maximize the race window readers must survive.
  for (std::uint32_t target : {3u, 2u, 1u}) {
    ASSERT_TRUE(index.BeginRebalance(target).ok());
    for (;;) {
      auto remaining = index.StepRebalance(2);
      ASSERT_TRUE(remaining.ok()) << remaining.status().ToString();
      if (*remaining == 0) break;
      std::this_thread::yield();
    }
    ASSERT_TRUE(index.FinishRebalance().ok());
  }
  stop.store(true);
  for (auto& t : readers) t.join();
  em.Quiesce();

  auto final_answer = index.Query(sets[0], 0.0, 1.0);
  ASSERT_TRUE(final_answer.ok());
  EXPECT_EQ(final_answer->sids, truth);
  EXPECT_EQ(index.num_shards(), 1u);
}

// A whole rebalance can begin and finish inside one scatter: the query's
// first filter probe is held for 400 ms while RebalanceTo(5) grows a
// 2-shard index. The scatter read the 2-shard topology, so sids moved to
// the new shards can be missing from its answer, and it must come back
// tagged even though no rebalance is active by the time it gathers.
void CheckRebalanceInsideOneScatterIsTagged(
    const std::function<Result<ShardedQueryResult>(
        ShardedSetSimilarityIndex&, const ElementSet&)>& run) {
  const SetCollection sets = MakeSets(80, 7321);
  exec::EpochManager em;
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites(&em);
  const ElementSet& probe = sets[3];
  auto truth = index.Query(probe, 0.0, 0.7);
  ASSERT_TRUE(truth.ok());
  ASSERT_GT(truth->stats.bucket_accesses, 0u) << "the range must probe";

  auto& fi = fault::FaultInjector::Default();
  fi.Enable(fault::SeedFromEnv(7));
  fault::FaultSchedule hold = fault::FaultSchedule::Once();
  hold.latency_micros = 400000.0;
  fi.Arm("index/probe_fi", fault::FaultKind::kLatency, hold);
  Result<ShardedQueryResult> answer = Status::Internal("not run");
  std::thread reader([&] { answer = run(index, probe); });
  while (fi.fires("index/probe_fi") == 0) std::this_thread::yield();
  const Status rebalanced = index.RebalanceTo(5);
  reader.join();
  fi.Reset();
  ASSERT_TRUE(rebalanced.ok()) << rebalanced.ToString();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->rebalancing) << "a rebalance overlapped the scatter";
  EXPECT_TRUE(answer->partial);
  EXPECT_TRUE(std::includes(truth->sids.begin(), truth->sids.end(),
                            answer->sids.begin(), answer->sids.end()));
  em.Quiesce();
}

TEST_F(RebalanceTest, SerialQueryOverlappingAWholeRebalanceIsTagged) {
  SKIP_WITHOUT_INJECTION();
  CheckRebalanceInsideOneScatterIsTagged(
      [](ShardedSetSimilarityIndex& index, const ElementSet& q) {
        return index.Query(q, 0.0, 0.7);
      });
}

TEST_F(RebalanceTest, RoutedQueryOverlappingAWholeRebalanceIsTagged) {
  SKIP_WITHOUT_INJECTION();
  CheckRebalanceInsideOneScatterIsTagged(
      [](ShardedSetSimilarityIndex& index, const ElementSet& q) {
        QueryRouterOptions router_options;
        router_options.num_threads = 1;
        QueryRouter router(index, router_options);
        return router.Query(q, 0.0, 0.7);
      });
}

TEST_F(RebalanceTest, RoutedBatchOverlappingAWholeRebalanceIsTagged) {
  SKIP_WITHOUT_INJECTION();
  CheckRebalanceInsideOneScatterIsTagged(
      [](ShardedSetSimilarityIndex& index,
         const ElementSet& q) -> Result<ShardedQueryResult> {
        QueryRouterOptions router_options;
        router_options.num_threads = 1;
        QueryRouter router(index, router_options);
        RoutedBatchResult batch = router.RunBatch({{q, 0.0, 0.7}});
        if (!batch.statuses[0].ok()) return batch.statuses[0];
        return std::move(batch.results[0]);
      });
}

// ---------------------------------------------------------------------------
// Writers during a rebalance: fresh inserts route under the target
// topology, and erasing a planned-but-unmoved sid skips its move.
// ---------------------------------------------------------------------------

TEST_F(RebalanceTest, InsertsDuringGrowRouteUnderTheTargetTopology) {
  const SetCollection sets = MakeSets(40, 1212);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();
  Rng rng(99);

  ASSERT_TRUE(index.BeginRebalance(4).ok());
  // Fresh inserts while the plan drains: they vote under 4 shards, so the
  // finished index is indistinguishable from one that grew first.
  std::vector<SetId> fresh_sids;
  for (int i = 0; i < 12; ++i) {
    const SetId sid = static_cast<SetId>(sets.size() + i);
    ASSERT_TRUE(index.Insert(sid, RandomSet(rng)).ok());
    fresh_sids.push_back(sid);
  }
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());

  // Every fresh sid sits where a fresh 4-shard build would put it.
  ShardMap reference_map(4);
  for (SetId sid : fresh_sids) {
    EXPECT_EQ(index.shard_map().ShardOf(sid), reference_map.ShardOf(sid))
        << "sid " << sid << " not placed under the target topology";
    EXPECT_EQ(LocationsOf(index, sid),
              std::vector<std::uint32_t>{index.shard_map().ShardOf(sid)});
  }
  auto answer = index.Query(sets[0], 0.0, 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->sids.size(), sets.size() + fresh_sids.size());
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, ErasedSidsSkipTheirPlannedMove) {
  const SetCollection sets = MakeSets(50, 3434);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  const std::vector<ShardMove> plan = index.shard_map().PlanRebalance(4);
  ASSERT_FALSE(plan.empty());
  const SetId doomed = plan.front().sid;

  ASSERT_TRUE(index.BeginRebalance(4).ok());
  ASSERT_TRUE(index.Erase(doomed).ok());
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  RebalanceStatus status = index.rebalance_status();
  EXPECT_GE(status.moves_skipped, 1u);
  EXPECT_EQ(status.moves_done + status.moves_skipped, status.moves_planned);
  ASSERT_TRUE(index.FinishRebalance().ok());

  EXPECT_TRUE(LocationsOf(index, doomed).empty());
  auto answer = index.Query(sets[doomed], 0.0, 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(std::binary_search(answer->sids.begin(), answer->sids.end(),
                                  doomed));
  index.epoch_manager()->Quiesce();
}

// ---------------------------------------------------------------------------
// The crash-during-rebalance matrix. Every move appends two WAL records
// (advisory kMoveOut to the source log, then kMoveIn — the commit point —
// to the destination log). Kill the writer at every record boundary,
// recover from the post-Begin checkpoint + captured logs, and assert the
// per-sid placement is fully old or fully new, never split; then re-run
// the rebalance and assert it converges to the target placement.
// ---------------------------------------------------------------------------

void RunCrashMatrix(std::uint32_t from, std::uint32_t to) {
  const SetCollection sets = MakeSets(36, 0xc4a5 + from * 17 + to);
  auto& fi = fault::FaultInjector::Default();

  // The plan is a pure function of the map, so compute it once up front to
  // know the move count (every move appends exactly two records here).
  const std::vector<ShardMove> plan =
      BuildAt(sets, from).shard_map().PlanRebalance(to);
  ASSERT_FALSE(plan.empty());
  const std::size_t total_records = 2 * plan.size();

  // The fully-converged reference placement.
  ShardedSetSimilarityIndex converged = BuildAt(sets, from);
  converged.EnableConcurrentWrites();
  ASSERT_TRUE(converged.RebalanceTo(to).ok());
  const std::uint64_t converged_map_digest =
      converged.shard_map().ContentDigest();

  for (std::size_t k = 0; k <= total_records; ++k) {
    SCOPED_TRACE("crash after " + std::to_string(k) + " of " +
                 std::to_string(total_records) + " move records (" +
                 std::to_string(from) + " -> " + std::to_string(to) + ")");
    ShardedSetSimilarityIndex index = BuildAt(sets, from);
    index.EnableConcurrentWrites();

    // Durability setup: logs on the original shards, then Begin, then logs
    // on any grown shards, then the post-Begin checkpoint the protocol
    // requires (recovery must see the new topology's shard count).
    std::vector<std::unique_ptr<std::ostringstream>> wal_streams;
    std::vector<std::unique_ptr<WalWriter>> writers;
    auto attach = [&](std::uint32_t s) {
      wal_streams.push_back(std::make_unique<std::ostringstream>());
      writers.push_back(
          std::make_unique<WalWriter>(*wal_streams.back(), kWalFirstLsn));
      index.AttachShardWal(s, writers.back().get());
    };
    for (std::uint32_t s = 0; s < from; ++s) attach(s);
    ASSERT_TRUE(index.BeginRebalance(to).ok());
    for (std::uint32_t s = from; s < index.num_shards(); ++s) attach(s);
    const std::uint32_t checkpoint_shards = index.num_shards();
    std::ostringstream ckpt_out;
    ASSERT_TRUE(WriteShardedCheckpoint(
                    index,
                    std::vector<std::uint64_t>(checkpoint_shards, 0),
                    ckpt_out)
                    .ok());
    ASSERT_TRUE(index.MarkRebalanceCheckpointed().ok());

    // Drive moves one at a time until the armed crash point kills the k-th
    // append — a process death at that exact record boundary.
    fi.Reset();
    fi.Enable(fault::SeedFromEnv(7));
    fi.Arm("wal/crash", fault::FaultKind::kCrashPoint,
           fault::FaultSchedule::Once(/*after_hits=*/k));
    bool crashed = false;
    for (;;) {
      auto remaining = index.StepRebalance(1);
      if (!remaining.ok()) {
        crashed = true;
        break;
      }
      if (*remaining == 0) break;
    }
    fi.Reset();
    EXPECT_EQ(crashed, k < total_records);

    std::vector<std::string> wal_bytes;
    for (auto& stream : wal_streams) wal_bytes.push_back(stream->str());

    // Recover from (post-Begin checkpoint, surviving logs).
    std::istringstream ckpt_in(ckpt_out.str());
    std::vector<std::unique_ptr<std::istringstream>> wal_in;
    std::vector<std::istream*> wal_ptrs;
    for (const std::string& bytes : wal_bytes) {
      wal_in.push_back(std::make_unique<std::istringstream>(bytes));
      wal_ptrs.push_back(wal_in.back().get());
    }
    auto rec = RecoverShardedIndex(ckpt_in, wal_ptrs, TestOptions(from));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(rec->index->num_shards(), checkpoint_shards);
    EXPECT_TRUE(rec->quarantined_shards.empty());

    // The per-sid consistency contract: move i committed iff its kMoveIn
    // (record 2i + 2) landed before the crash. Each sid is fully at its
    // old home or fully at its new one — never split, never lost.
    for (std::size_t i = 0; i < plan.size(); ++i) {
      const ShardMove& move = plan[i];
      const bool committed = 2 * i + 2 <= k;
      const std::uint32_t expect = committed ? move.to : move.from;
      ASSERT_EQ(LocationsOf(*rec->index, move.sid),
                std::vector<std::uint32_t>{expect})
          << "sid " << move.sid << " (move " << i << ", committed "
          << committed << ") split or lost";
      EXPECT_EQ(rec->index->shard_map().ShardOf(move.sid), expect);
    }
    // And the differential contract: the recovered index still answers
    // with every live sid, exactly once.
    auto recovered_answer = rec->index->Query(sets[0], 0.0, 1.0);
    ASSERT_TRUE(recovered_answer.ok());
    EXPECT_EQ(recovered_answer->sids, AllSids(sets.size()));
    EXPECT_EQ(rec->index->num_live_sets(), sets.size());

    // A re-run rebalance converges the remainder to the target placement.
    ASSERT_TRUE(rec->index->RebalanceTo(to).ok());
    EXPECT_EQ(rec->index->num_shards(), to);
    EXPECT_EQ(rec->index->shard_map().ContentDigest(), converged_map_digest);
    auto final_answer = rec->index->Query(sets[0], 0.0, 1.0);
    ASSERT_TRUE(final_answer.ok());
    EXPECT_EQ(final_answer->sids, AllSids(sets.size()));
    if (::testing::Test::HasFatalFailure()) return;
  }
  converged.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, CrashAtEveryMoveRecordBoundaryDuringGrow) {
  SKIP_WITHOUT_INJECTION();
  RunCrashMatrix(2, 3);
}

TEST_F(RebalanceTest, CrashAtEveryMoveRecordBoundaryDuringShrink) {
  SKIP_WITHOUT_INJECTION();
  RunCrashMatrix(3, 2);
}

// ---------------------------------------------------------------------------
// The post-Begin checkpoint is enforced, not advisory: with a WAL attached,
// moves refuse to run until the caller declares the checkpoint (directly or
// through the hook). And a move that fails *after* its kMoveIn commit point
// wedges the state machine instead of pretending to be retryable.
// ---------------------------------------------------------------------------

TEST_F(RebalanceTest, StepWithoutPostBeginCheckpointIsRefused) {
  const SetCollection sets = MakeSets(30, 5151);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();
  std::ostringstream wal_stream;
  WalWriter writer(wal_stream, kWalFirstLsn);
  index.AttachShardWal(0, &writer);

  ASSERT_TRUE(index.BeginRebalance(3).ok());
  EXPECT_FALSE(index.rebalance_status().checkpointed);
  auto refused = index.StepRebalance(1);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());

  // Write the checkpoint the protocol demands, declare it, and the drain
  // proceeds normally.
  std::ostringstream ckpt_out;
  ASSERT_TRUE(WriteShardedCheckpoint(
                  index, std::vector<std::uint64_t>(index.num_shards(), 0),
                  ckpt_out)
                  .ok());
  ASSERT_TRUE(index.MarkRebalanceCheckpointed().ok());
  EXPECT_TRUE(index.rebalance_status().checkpointed);
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());
  // Outside a rebalance there is nothing to declare.
  EXPECT_TRUE(index.MarkRebalanceCheckpointed().IsFailedPrecondition());
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, WalLessRebalanceOwesNoCheckpoint) {
  const SetCollection sets = MakeSets(30, 5252);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();
  // In-memory deployments (the differential harness, the benchrunner) have
  // nothing to replay, so the checkpoint requirement is vacuous.
  ASSERT_TRUE(index.BeginRebalance(3).ok());
  EXPECT_TRUE(index.rebalance_status().checkpointed);
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, CheckpointHookMakesRebalanceToDurable) {
  const SetCollection sets = MakeSets(30, 6161);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  std::vector<std::unique_ptr<std::ostringstream>> wal_streams;
  std::vector<std::unique_ptr<WalWriter>> writers;
  auto attach = [&](std::uint32_t s) {
    wal_streams.push_back(std::make_unique<std::ostringstream>());
    writers.push_back(
        std::make_unique<WalWriter>(*wal_streams.back(), kWalFirstLsn));
    index.AttachShardWal(s, writers.back().get());
  };
  for (std::uint32_t s = 0; s < 2; ++s) attach(s);

  // The hook is the durable deployment's one-stop Begin callback: it runs
  // after the grown topology is published, attaches logs to the new
  // shards, and writes the post-Begin checkpoint — success marks the
  // rebalance checkpointed, so RebalanceTo is safe end to end.
  std::ostringstream ckpt_out;
  int hook_runs = 0;
  index.SetRebalanceCheckpointHook([&]() -> Status {
    ++hook_runs;
    for (std::uint32_t s = 2; s < index.num_shards(); ++s) attach(s);
    return WriteShardedCheckpoint(
        index, std::vector<std::uint64_t>(index.num_shards(), 0), ckpt_out);
  });
  ASSERT_TRUE(index.RebalanceTo(4).ok());
  EXPECT_EQ(hook_runs, 1);

  // The hook's checkpoint + the captured logs round-trip every sid.
  std::istringstream ckpt_in(ckpt_out.str());
  std::vector<std::unique_ptr<std::istringstream>> wal_in;
  std::vector<std::istream*> wal_ptrs;
  for (auto& stream : wal_streams) {
    wal_in.push_back(std::make_unique<std::istringstream>(stream->str()));
    wal_ptrs.push_back(wal_in.back().get());
  }
  auto rec = RecoverShardedIndex(ckpt_in, wal_ptrs, TestOptions(2));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->index->num_live_sets(), sets.size());
  auto answer = rec->index->Query(sets[0], 0.0, 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->sids, AllSids(sets.size()));
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, CheckpointHookFailureLeavesRebalanceUncheckpointed) {
  const SetCollection sets = MakeSets(30, 6262);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();
  std::ostringstream wal_stream;
  WalWriter writer(wal_stream, kWalFirstLsn);
  index.AttachShardWal(0, &writer);

  index.SetRebalanceCheckpointHook(
      [] { return Status::Unavailable("checkpoint device offline"); });
  EXPECT_TRUE(index.BeginRebalance(3).IsUnavailable());
  // The rebalance stays active (the topology is already published) but
  // un-checkpointed, so moves keep refusing until the caller recovers.
  RebalanceStatus status = index.rebalance_status();
  EXPECT_TRUE(status.active);
  EXPECT_FALSE(status.checkpointed);
  EXPECT_TRUE(index.StepRebalance(1).status().IsFailedPrecondition());

  // Recovery path: the caller retries durability out of band and declares.
  ASSERT_TRUE(index.MarkRebalanceCheckpointed().ok());
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());
  index.epoch_manager()->Quiesce();
}

TEST_F(RebalanceTest, MoveApplyFailureAfterCommitPointWedgesTheRebalance) {
  SKIP_WITHOUT_INJECTION();
  const SetCollection sets = MakeSets(30, 8282);
  auto& fi = fault::FaultInjector::Default();
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  std::vector<std::unique_ptr<std::ostringstream>> wal_streams;
  std::vector<std::unique_ptr<WalWriter>> writers;
  auto attach = [&](std::uint32_t s) {
    wal_streams.push_back(std::make_unique<std::ostringstream>());
    writers.push_back(
        std::make_unique<WalWriter>(*wal_streams.back(), kWalFirstLsn));
    index.AttachShardWal(s, writers.back().get());
  };
  for (std::uint32_t s = 0; s < 2; ++s) attach(s);
  ASSERT_TRUE(index.BeginRebalance(3).ok());
  for (std::uint32_t s = 2; s < index.num_shards(); ++s) attach(s);
  std::ostringstream ckpt_out;
  ASSERT_TRUE(WriteShardedCheckpoint(
                  index, std::vector<std::uint64_t>(index.num_shards(), 0),
                  ckpt_out)
                  .ok());
  ASSERT_TRUE(index.MarkRebalanceCheckpointed().ok());

  // Fail the first destination-store append: by then the move's kMoveIn is
  // already durable, so the log and memory disagree — the failure must NOT
  // be treated as retryable (re-running would diverge from what recovery
  // replays). The state machine wedges instead.
  fi.Enable(fault::SeedFromEnv(7));
  fi.Arm("store/add", fault::FaultKind::kWriteError,
         fault::FaultSchedule::Once(/*after_hits=*/0));
  auto stepped = index.StepRebalance(1);
  fi.Reset();
  ASSERT_FALSE(stepped.ok());
  EXPECT_TRUE(stepped.status().IsInternal()) << stepped.status().ToString();

  RebalanceStatus status = index.rebalance_status();
  EXPECT_TRUE(status.wedged);
  // Terminal: Step and Finish keep refusing even though the fault cleared —
  // the durable truth is checkpoint + WALs, not this process's memory.
  EXPECT_TRUE(index.StepRebalance(1).status().IsFailedPrecondition());
  EXPECT_TRUE(index.FinishRebalance().IsFailedPrecondition());
  index.epoch_manager()->Quiesce();
}

// ---------------------------------------------------------------------------
// Cross-log resurrection: a sid whose records span logs (insert in one
// shard's log, then rebalanced away, then erased wherever it lives now)
// must stay erased through recovery even when the erase's log replays
// before the insert's.
// ---------------------------------------------------------------------------

TEST_F(RebalanceTest, RecoveryDoesNotResurrectSidsErasedAcrossLogs) {
  const SetCollection sets = MakeSets(24, 7777);
  Rng rng(4242);
  ShardedSetSimilarityIndex index = BuildAt(sets, 2);
  index.EnableConcurrentWrites();

  std::vector<std::unique_ptr<std::ostringstream>> wal_streams;
  std::vector<std::unique_ptr<WalWriter>> writers;
  for (std::uint32_t s = 0; s < 2; ++s) {
    wal_streams.push_back(std::make_unique<std::ostringstream>());
    writers.push_back(
        std::make_unique<WalWriter>(*wal_streams.back(), kWalFirstLsn));
    index.AttachShardWal(s, writers.back().get());
  }
  // T0: the recovery cut. Everything after lives only in the logs.
  std::ostringstream ckpt_out;
  ASSERT_TRUE(
      WriteShardedCheckpoint(index, {0, 0}, ckpt_out).ok());

  // A fresh sid that routes to shard 1, so its kInsert lands in log 1.
  ShardMap probe(2);
  SetId x = static_cast<SetId>(sets.size());
  while (probe.ShardOf(x) != 1) ++x;
  ASSERT_TRUE(index.Insert(x, RandomSet(rng)).ok());

  // Shrink 2 -> 1: x's kMoveOut lands in log 1, its kMoveIn (the commit
  // point) in log 0. The caller here deliberately declares the checkpoint
  // without re-writing it — the undisciplined caller the tombstone pass
  // must survive.
  ASSERT_TRUE(index.BeginRebalance(1).ok());
  ASSERT_TRUE(index.MarkRebalanceCheckpointed().ok());
  for (;;) {
    auto remaining = index.StepRebalance(8);
    ASSERT_TRUE(remaining.ok());
    if (*remaining == 0) break;
  }
  ASSERT_TRUE(index.FinishRebalance().ok());
  // x now lives at shard 0; the erase's kErase lands in log 0 — a
  // *different* log from the kInsert, and one that replays first.
  ASSERT_TRUE(index.Erase(x).ok());

  std::istringstream ckpt_in(ckpt_out.str());
  std::istringstream wal0_in(wal_streams[0]->str());
  std::istringstream wal1_in(wal_streams[1]->str());
  std::vector<std::istream*> wal_ptrs = {&wal0_in, &wal1_in};
  auto rec = RecoverShardedIndex(ckpt_in, wal_ptrs, TestOptions(2));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // Shard-order replay applies log 0's kMoveIn + kErase before it ever
  // sees log 1's kInsert; without cross-log tombstones that stale insert
  // would resurrect the erased sid.
  EXPECT_TRUE(LocationsOf(*rec->index, x).empty())
      << "erased sid resurrected by cross-log replay";
  EXPECT_EQ(rec->index->num_live_sets(), sets.size());
  auto answer = rec->index->Query(sets[0], 0.0, 1.0);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(
      std::binary_search(answer->sids.begin(), answer->sids.end(), x));
  EXPECT_EQ(answer->sids, AllSids(sets.size()));
  index.epoch_manager()->Quiesce();
}

}  // namespace
}  // namespace shard
}  // namespace ssr
