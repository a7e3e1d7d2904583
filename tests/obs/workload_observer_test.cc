// WorkloadObserver contract: bins follow the SimilarityHistogram
// convention, MergeFrom is exact (merged workers == one observer fed
// serially), scoped observers mirror into the default registry, and the
// same seeded workload produces the same query-level capture whether it
// runs serially, through the batch executor's per-worker observers, or
// through the sharded query router.

#include "obs/workload_observer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/set_similarity_index.h"
#include "exec/batch_executor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace obs {
namespace {

TEST(WorkloadObserverTest, ThresholdBinsFollowHistogramConvention) {
  WorkloadObserverOptions options;
  options.threshold_bins = 4;
  WorkloadObserver observer(options);
  observer.CountQuery(0.0, 0.24, 3);    // σ1 bin 0, σ2 bin 0
  observer.CountQuery(0.25, 0.5, 3);    // σ1 bin 1, σ2 bin 2
  observer.CountQuery(0.74, 1.0, 3);    // σ1 bin 2, σ2 bin 3 (last closed)
  const WorkloadSnapshot snap = observer.Snapshot();
  ASSERT_EQ(snap.sigma1_bins.size(), 4u);
  EXPECT_EQ(snap.queries, 3u);
  EXPECT_EQ(snap.sigma1_bins[0], 1u);
  EXPECT_EQ(snap.sigma1_bins[1], 1u);
  EXPECT_EQ(snap.sigma1_bins[2], 1u);
  EXPECT_EQ(snap.sigma1_bins[3], 0u);
  EXPECT_EQ(snap.sigma2_bins[0], 1u);
  EXPECT_EQ(snap.sigma2_bins[2], 1u);
  EXPECT_EQ(snap.sigma2_bins[3], 1u);
}

TEST(WorkloadObserverTest, RangeCoverageIsFractionalOverlapPerBin) {
  WorkloadObserverOptions options;
  options.threshold_bins = 4;
  WorkloadObserver observer(options);
  // [0.25, 0.75] fully covers bins 1 and 2, misses bins 0 and 3.
  observer.CountQuery(0.25, 0.75, 1);
  // [0.0, 0.125] covers half of bin 0.
  observer.CountQuery(0.0, 0.125, 1);
  const WorkloadSnapshot snap = observer.Snapshot();
  ASSERT_EQ(snap.range_coverage.size(), 4u);
  EXPECT_NEAR(snap.range_coverage[0], 0.5, 1e-4);
  EXPECT_NEAR(snap.range_coverage[1], 1.0, 1e-4);
  EXPECT_NEAR(snap.range_coverage[2], 1.0, 1e-4);
  EXPECT_NEAR(snap.range_coverage[3], 0.0, 1e-4);
}

TEST(WorkloadObserverTest, ProbesBeyondMaxFisAreDroppedAndCounted) {
  WorkloadObserverOptions options;
  options.max_fis = 2;
  WorkloadObserver observer(options);
  observer.CountFiProbe(0, 5, 10, false);
  observer.CountFiProbe(1, 3, 4, true);
  observer.CountFiProbe(7, 9, 9, false);  // out of range
  const WorkloadSnapshot snap = observer.Snapshot();
  ASSERT_EQ(snap.fis.size(), 2u);
  EXPECT_EQ(snap.fis[0].probes, 1u);
  EXPECT_EQ(snap.fis[0].bucket_accesses, 5u);
  EXPECT_EQ(snap.fis[0].sids, 10u);
  EXPECT_EQ(snap.fis[1].failed_probes, 1u);
  EXPECT_EQ(observer.dropped_fi_probes(), 1u);
  EXPECT_DOUBLE_EQ(snap.fis[0].selectivity(), 10.0);
}

TEST(WorkloadObserverTest, ShardSkewIsMaxShareTimesShards) {
  WorkloadObserverOptions options;
  options.num_shards = 2;
  WorkloadObserver observer(options);
  EXPECT_DOUBLE_EQ(observer.Snapshot().ShardSkew(), 0.0);
  observer.CountShardAnswer(0, 4);
  observer.CountShardAnswer(0, 0);
  observer.CountShardAnswer(0, 1);
  observer.CountShardAnswer(1, 2);
  const WorkloadSnapshot snap = observer.Snapshot();
  EXPECT_EQ(snap.shards[0].queries, 3u);
  EXPECT_EQ(snap.shards[0].results, 5u);
  EXPECT_EQ(snap.shards[1].queries, 1u);
  // Max share 3/4 over 2 shards -> skew 1.5.
  EXPECT_NEAR(snap.ShardSkew(), 1.5, 1e-9);
}

void ExpectQueryLevelEqual(const WorkloadSnapshot& a,
                           const WorkloadSnapshot& b, const char* label) {
  EXPECT_EQ(a.queries, b.queries) << label;
  EXPECT_EQ(a.sigma1_bins, b.sigma1_bins) << label;
  EXPECT_EQ(a.sigma2_bins, b.sigma2_bins) << label;
  ASSERT_EQ(a.range_coverage.size(), b.range_coverage.size()) << label;
  for (std::size_t i = 0; i < a.range_coverage.size(); ++i) {
    EXPECT_NEAR(a.range_coverage[i], b.range_coverage[i], 1e-4)
        << label << " bin " << i;
  }
  EXPECT_EQ(a.set_size_bins, b.set_size_bins) << label;
}

TEST(WorkloadObserverTest, MergedWorkerObserversEqualSerialObserver) {
  Rng rng(321);
  WorkloadObserverOptions options;
  options.max_fis = 4;
  options.num_shards = 3;
  WorkloadObserver serial(options);
  WorkloadObserver merged(options);
  std::vector<std::unique_ptr<WorkloadObserver>> workers;
  for (int w = 0; w < 3; ++w) {
    workers.push_back(std::make_unique<WorkloadObserver>(options));
  }
  for (int i = 0; i < 200; ++i) {
    const double s1 = rng.NextDouble();
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    const std::size_t size = 1 + rng.Uniform(500);
    WorkloadObserver& worker = *workers[rng.Uniform(3)];
    serial.CountQuery(s1, s2, size);
    worker.CountQuery(s1, s2, size);
    const std::size_t fi = rng.Uniform(4);
    const std::uint64_t accesses = rng.Uniform(10);
    const std::uint64_t sids = rng.Uniform(50);
    serial.CountFiProbe(fi, accesses, sids, (i % 7) == 0);
    worker.CountFiProbe(fi, accesses, sids, (i % 7) == 0);
    const std::uint32_t shard = static_cast<std::uint32_t>(rng.Uniform(3));
    serial.CountShardAnswer(shard, sids);
    worker.CountShardAnswer(shard, sids);
  }
  for (const auto& worker : workers) merged.MergeFrom(*worker);

  const WorkloadSnapshot a = serial.Snapshot();
  const WorkloadSnapshot b = merged.Snapshot();
  ExpectQueryLevelEqual(a, b, "merged");
  ASSERT_EQ(a.fis.size(), b.fis.size());
  for (std::size_t i = 0; i < a.fis.size(); ++i) {
    EXPECT_EQ(a.fis[i].probes, b.fis[i].probes) << i;
    EXPECT_EQ(a.fis[i].failed_probes, b.fis[i].failed_probes) << i;
    EXPECT_EQ(a.fis[i].bucket_accesses, b.fis[i].bucket_accesses) << i;
    EXPECT_EQ(a.fis[i].sids, b.fis[i].sids) << i;
  }
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    EXPECT_EQ(a.shards[s].queries, b.shards[s].queries) << s;
    EXPECT_EQ(a.shards[s].results, b.shards[s].results) << s;
  }
}

TEST(WorkloadObserverTest, ScopedObserverRendersInPrometheusExport) {
  auto& registry = MetricsRegistry::Default();
  WorkloadObserverOptions options;
  options.max_fis = 2;
  options.num_shards = 2;
  options.metrics_scope = registry.NewScope("wobs_test");
  WorkloadObserver observer(options);
  observer.CountQuery(0.3, 0.9, 40);
  observer.CountFiProbe(0, 2, 7, false);
  observer.CountShardAnswer(0, 3);
  observer.CountShardAnswer(1, 1);
  observer.UpdateGauges();
  const std::string text = PrometheusText(registry);
  EXPECT_NE(text.find("ssr_workload_queries_total"), std::string::npos);
  EXPECT_NE(text.find("ssr_workload_sigma1"), std::string::npos);
  EXPECT_NE(text.find("ssr_workload_fi_selectivity"), std::string::npos);
  EXPECT_NE(text.find("ssr_workload_shard_skew"), std::string::npos);
  EXPECT_NE(text.find(options.metrics_scope), std::string::npos);
}

// The same seeded workload captured three ways — serial index queries,
// the batch executor's per-worker merge, and the sharded router — must
// agree exactly on the query-level capture (thresholds, coverage, sizes).
// FI-level counts must also agree between serial and batch (same index);
// the router's FI totals sum across shards, so only their presence is
// checked there.
TEST(WorkloadObserverTest, SerialBatchAndShardedCapturesAgree) {
  Rng rng(7777);
  SetCollection sets;
  SetStore store;
  for (int i = 0; i < 200; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(40);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(4000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    sets.push_back(s);
    ASSERT_TRUE(store.Add(s).ok());
  }
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.2, FilterKind::kDissimilarity, 8, 0},
                   {0.5, FilterKind::kSimilarity, 8, 0},
                   {0.8, FilterKind::kSimilarity, 8, 0}};
  IndexOptions options;
  options.embedding.minhash.num_hashes = 60;
  options.embedding.minhash.seed = 99;
  options.seed = 1234;
  auto index = SetSimilarityIndex::Build(store, layout, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  std::vector<exec::BatchQuery> batch;
  for (int t = 0; t < 80; ++t) {
    exec::BatchQuery q;
    q.query = sets[rng.Uniform(sets.size())];
    q.sigma1 = rng.NextDouble() * 0.8;
    q.sigma2 = q.sigma1 + rng.NextDouble() * (1.0 - q.sigma1);
    batch.push_back(std::move(q));
  }

  WorkloadObserverOptions obs_options;
  obs_options.max_fis = 4;

  WorkloadObserver serial_obs(obs_options);
  index->AttachWorkloadObserver(&serial_obs);
  for (const auto& q : batch) {
    ASSERT_TRUE(index->Query(q.query, q.sigma1, q.sigma2).ok());
  }
  index->AttachWorkloadObserver(nullptr);

  WorkloadObserver batch_obs(obs_options);
  exec::BatchExecutorOptions exec_options;
  exec_options.num_threads = 4;
  exec_options.workload_observer = &batch_obs;
  exec::BatchExecutor executor(*index, exec_options);
  const exec::BatchResult batch_result = executor.Run(batch);
  ASSERT_EQ(batch_result.failed, 0u);

  WorkloadObserverOptions shard_obs_options = obs_options;
  shard_obs_options.num_shards = 2;
  WorkloadObserver shard_obs(shard_obs_options);
  shard::ShardedIndexOptions shard_options;
  shard_options.num_shards = 2;
  shard_options.index = options;
  auto sharded = shard::ShardedSetSimilarityIndex::Build(sets, layout,
                                                         shard_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  shard::QueryRouterOptions router_options;
  router_options.num_threads = 4;
  router_options.workload_observer = &shard_obs;
  shard::QueryRouter router(*sharded, router_options);
  for (const auto& q : batch) {
    ASSERT_TRUE(router.Query(q.query, q.sigma1, q.sigma2).ok());
  }

  const WorkloadSnapshot serial_snap = serial_obs.Snapshot();
  const WorkloadSnapshot batch_snap = batch_obs.Snapshot();
  const WorkloadSnapshot shard_snap = shard_obs.Snapshot();
  ExpectQueryLevelEqual(serial_snap, batch_snap, "batch");
  ExpectQueryLevelEqual(serial_snap, shard_snap, "sharded");

  // Same index, same queries: FI-level agreement between serial and batch.
  ASSERT_EQ(serial_snap.fis.size(), batch_snap.fis.size());
  for (std::size_t i = 0; i < serial_snap.fis.size(); ++i) {
    EXPECT_EQ(serial_snap.fis[i].probes, batch_snap.fis[i].probes) << i;
    EXPECT_EQ(serial_snap.fis[i].bucket_accesses,
              batch_snap.fis[i].bucket_accesses)
        << i;
    EXPECT_EQ(serial_snap.fis[i].sids, batch_snap.fis[i].sids) << i;
  }

  // The router observed both shards and every query landed somewhere.
  ASSERT_EQ(shard_snap.shards.size(), 2u);
  EXPECT_EQ(shard_snap.shards[0].queries + shard_snap.shards[1].queries,
            2 * batch.size());  // every query probes both shards
  EXPECT_GT(shard_snap.fis[0].probes + shard_snap.fis[1].probes +
                shard_snap.fis[2].probes + shard_snap.fis[3].probes,
            0u);
}

}  // namespace
}  // namespace obs
}  // namespace ssr
