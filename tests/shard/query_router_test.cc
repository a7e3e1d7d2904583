// QueryRouter equivalence and scheduling tests: parallel scatter/gather
// answers are identical to the serial ShardedSetSimilarityIndex::Query at
// every worker count, batches match query-at-a-time routing, failure
// semantics follow the ShardFailurePolicy, the modeled makespan
// bookkeeping behaves, and steady-state queries leave the metrics registry
// alone. These run under TSan in CI (tsan-critical label) —
// the scatter path is the only place shard stores are read concurrently.

#include "shard/query_router.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "shard/sharded_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace shard {
namespace {

struct Fixture {
  SetCollection sets;
  std::unique_ptr<ShardedSetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(std::size_t n, std::uint32_t num_shards,
                                      ShardFailurePolicy policy =
                                          ShardFailurePolicy::kPartialResults) {
  auto f = std::make_unique<Fixture>();
  Rng rng(8787);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(6000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
  }
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 0}};
  ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index.embedding.minhash.num_hashes = 80;
  options.index.embedding.minhash.seed = 777;
  options.index.seed = 4242;
  options.on_shard_failure = policy;
  auto built = ShardedSetSimilarityIndex::Build(f->sets, layout, options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return nullptr;
  f->index =
      std::make_unique<ShardedSetSimilarityIndex>(std::move(built).value());
  return f;
}

std::vector<exec::BatchQuery> MakeBatch(const Fixture& f, std::size_t n,
                                        std::uint64_t seed) {
  std::vector<exec::BatchQuery> batch;
  Rng rng(seed);
  for (std::size_t t = 0; t < n; ++t) {
    exec::BatchQuery q;
    q.query = f.sets[rng.Uniform(f.sets.size())];
    q.sigma1 = rng.NextDouble() * 0.8;
    q.sigma2 = q.sigma1 + rng.NextDouble() * (1.0 - q.sigma1);
    batch.push_back(std::move(q));
  }
  return batch;
}

TEST(QueryRouterTest, MatchesSerialQueryAtEveryWorkerCount) {
  auto f = BuildFixture(250, 4);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 30, 11);
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    QueryRouterOptions options;
    options.num_threads = threads;
    QueryRouter router(*f->index, options);
    ASSERT_EQ(router.num_threads(), threads);
    for (const exec::BatchQuery& q : batch) {
      auto serial = f->index->Query(q.query, q.sigma1, q.sigma2);
      auto routed = router.Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(serial.ok());
      ASSERT_TRUE(routed.ok()) << routed.status().ToString();
      EXPECT_EQ(routed->sids, serial->sids) << "threads " << threads;
      EXPECT_EQ(routed->partial, serial->partial);
      // The gather is in shard order on both paths, so even the merged
      // stats agree counter for counter.
      EXPECT_EQ(routed->stats.candidates, serial->stats.candidates);
      EXPECT_EQ(routed->stats.size_pruned, serial->stats.size_pruned);
      EXPECT_EQ(routed->stats.bucket_accesses, serial->stats.bucket_accesses);
      EXPECT_EQ(routed->stats.sets_fetched, serial->stats.sets_fetched);
      EXPECT_EQ(routed->stats.results, serial->stats.results);
      ASSERT_EQ(routed->per_shard.size(), serial->per_shard.size());
      for (std::size_t s = 0; s < routed->per_shard.size(); ++s) {
        EXPECT_EQ(routed->per_shard[s].candidates,
                  serial->per_shard[s].candidates)
            << "shard " << s;
        EXPECT_EQ(routed->per_shard[s].size_pruned,
                  serial->per_shard[s].size_pruned)
            << "shard " << s;
      }
    }
  }
}

TEST(QueryRouterTest, BatchMatchesQueryAtATimeRouting) {
  auto f = BuildFixture(250, 4);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 50, 22);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.queries, batch.size());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.threads_used, 4u);
  ASSERT_EQ(result.results.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.statuses[i].ok()) << result.statuses[i].ToString();
    auto serial =
        f->index->Query(batch[i].query, batch[i].sigma1, batch[i].sigma2);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result.results[i].sids, serial->sids) << "query " << i;
  }
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GE(result.merge_seconds, 0.0);
  EXPECT_GT(result.modeled_makespan_seconds, 0.0);
  EXPECT_GT(result.modeled_qps, 0.0);
  // The modeled makespan treats shards as concurrent machines: the slowest
  // shard's batch makespan plus the merge, never the per-shard sum.
  double max_shard = 0.0, sum_shard = 0.0;
  for (const exec::BatchResult& br : result.per_shard) {
    max_shard = std::max(max_shard, br.modeled_makespan_seconds);
    sum_shard += br.modeled_makespan_seconds;
  }
  EXPECT_DOUBLE_EQ(result.modeled_makespan_seconds,
                   max_shard + result.merge_seconds);
  EXPECT_LE(max_shard, sum_shard);
}

TEST(QueryRouterTest, InvalidRangePropagatesAsInvalidArgument) {
  auto f = BuildFixture(60, 3);
  ASSERT_NE(f, nullptr);
  QueryRouter router(*f->index);
  auto r = router.Query(f->sets[0], 0.9, 0.2);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());

  auto batch = MakeBatch(*f, 4, 33);
  exec::BatchQuery bad;
  bad.query = f->sets[0];
  bad.sigma1 = 0.9;
  bad.sigma2 = 0.2;
  batch.insert(batch.begin() + 1, bad);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_TRUE(result.statuses[1].IsInvalidArgument());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 1) continue;
    EXPECT_TRUE(result.statuses[i].ok()) << "query " << i;
  }
}

TEST(QueryRouterTest, DegradedShardTagsPartialAnswersInBothPaths) {
  auto f = BuildFixture(200, 4);
  ASSERT_NE(f, nullptr);
  f->index->SetShardDegraded(1, true);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);

  const auto batch = MakeBatch(*f, 20, 44);
  for (const exec::BatchQuery& q : batch) {
    auto serial = f->index->Query(q.query, q.sigma1, q.sigma2);
    auto routed = router.Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(serial.ok());
    ASSERT_TRUE(routed.ok());
    EXPECT_TRUE(routed->partial);
    EXPECT_TRUE(routed->stats.degraded);
    ASSERT_EQ(routed->degraded_shards.size(), 1u);
    EXPECT_EQ(routed->degraded_shards[0], 1u);
    EXPECT_EQ(routed->sids, serial->sids);
  }

  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(result.statuses[i].ok());
    EXPECT_TRUE(result.results[i].partial) << "query " << i;
    auto serial =
        f->index->Query(batch[i].query, batch[i].sigma1, batch[i].sigma2);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result.results[i].sids, serial->sids) << "query " << i;
  }
}

TEST(QueryRouterTest, DegradedShardFailsQueriesUnderFailFast) {
  auto f = BuildFixture(100, 3, ShardFailurePolicy::kFailFast);
  ASSERT_NE(f, nullptr);
  f->index->SetShardDegraded(2, true);
  QueryRouterOptions options;
  options.num_threads = 2;
  QueryRouter router(*f->index, options);

  auto r = router.Query(f->sets[0], 0.0, 1.0);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsUnavailable());

  const auto batch = MakeBatch(*f, 6, 55);
  RoutedBatchResult result = router.RunBatch(batch);
  EXPECT_EQ(result.failed, batch.size());
  for (const Status& st : result.statuses) {
    EXPECT_TRUE(st.IsUnavailable()) << st.ToString();
  }
}

// Views and probe scratch persist per (worker, shard): once every worker
// has met its shards, routed queries register nothing in the metrics
// registry (each fresh ReadView registers a scope of six counters).
TEST(QueryRouterTest, SteadyStateQueriesRegisterNoMetrics) {
  auto f = BuildFixture(200, 4);
  ASSERT_NE(f, nullptr);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);
  const auto batch = MakeBatch(*f, 40, 77);
  ASSERT_TRUE(router.Query(batch[0].query, batch[0].sigma1, batch[0].sigma2)
                  .ok());
  const std::size_t entries =
      obs::MetricsRegistry::Default().Entries().size();
  for (std::size_t i = 0; i < 1000; ++i) {
    const exec::BatchQuery& q = batch[i % batch.size()];
    ASSERT_TRUE(router.Query(q.query, q.sigma1, q.sigma2).ok()) << i;
  }
  EXPECT_EQ(obs::MetricsRegistry::Default().Entries().size(), entries);
}

// Each shard's BatchExecutor, and with it its worker views, persists
// across batches: a second batch registers nothing either.
TEST(QueryRouterTest, SteadyStateBatchesRegisterNoMetrics) {
  auto f = BuildFixture(200, 4);
  ASSERT_NE(f, nullptr);
  QueryRouterOptions options;
  options.num_threads = 3;
  QueryRouter router(*f->index, options);
  const auto batch = MakeBatch(*f, 20, 78);
  const RoutedBatchResult first = router.RunBatch(batch);
  ASSERT_EQ(first.failed, 0u);
  const std::size_t entries =
      obs::MetricsRegistry::Default().Entries().size();
  const RoutedBatchResult second = router.RunBatch(batch);
  ASSERT_EQ(second.failed, 0u);
  EXPECT_EQ(obs::MetricsRegistry::Default().Entries().size(), entries);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(second.results[i].sids, first.results[i].sids) << "query " << i;
  }
}

TEST(QueryRouterTest, SingleShardRoutingDegeneratesToPlainBatching) {
  auto f = BuildFixture(150, 1);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 25, 66);
  QueryRouterOptions options;
  options.num_threads = 4;
  QueryRouter router(*f->index, options);
  RoutedBatchResult routed = router.RunBatch(batch);

  exec::BatchExecutorOptions exec_options;
  exec_options.num_threads = 4;
  exec::BatchExecutor executor(*f->index->shard_index(0), exec_options);
  exec::BatchResult plain = executor.Run(batch);

  ASSERT_EQ(routed.results.size(), plain.results.size());
  EXPECT_EQ(routed.failed, plain.failed);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(routed.results[i].sids, plain.results[i].sids) << "query " << i;
  }
}

}  // namespace
}  // namespace shard
}  // namespace ssr
