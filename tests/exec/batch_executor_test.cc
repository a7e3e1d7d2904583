// The batch executor's equivalence contract: Run(queries) returns, per
// query, exactly the sids a serial SetSimilarityIndex::Query loop returns —
// at any worker count, and still soundly under injected faults with
// DegradeMode::kPartialResults (latency faults change nothing; read faults
// may shrink answers but never produce a wrong sid).

#include "exec/batch_executor.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "fault/fault_injector.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace exec {
namespace {

constexpr double kEps = 1e-12;  // matches the index's verification slack

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(
    std::size_t n, DegradeMode degrade = DegradeMode::kSequentialFallback) {
  auto f = std::make_unique<Fixture>();
  Rng rng(8787);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(6000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
    EXPECT_TRUE(f->store.Add(s).ok());
  }
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 0}};
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 777;
  options.seed = 4242;
  options.degrade = degrade;
  auto index = SetSimilarityIndex::Build(f->store, layout, options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  if (!index.ok()) return nullptr;
  f->index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return f;
}

std::vector<BatchQuery> MakeBatch(const Fixture& f, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<BatchQuery> batch;
  Rng rng(seed);
  for (std::size_t t = 0; t < n; ++t) {
    BatchQuery q;
    q.query = f.sets[rng.Uniform(f.sets.size())];
    q.sigma1 = rng.NextDouble() * 0.8;
    q.sigma2 = q.sigma1 + rng.NextDouble() * (1.0 - q.sigma1);
    batch.push_back(std::move(q));
  }
  return batch;
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

class BatchExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Default().Reset(); }
  void TearDown() override { fault::FaultInjector::Default().Reset(); }
};

TEST_F(BatchExecutorTest, MatchesSerialQueriesAtEveryWorkerCount) {
  auto f = BuildFixture(300);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 60, 11);

  std::vector<std::vector<SetId>> reference;
  for (const BatchQuery& q : batch) {
    auto r = f->index->Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    reference.push_back(r->sids);
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    BatchExecutorOptions options;
    options.num_threads = threads;
    BatchExecutor executor(*f->index, options);
    ASSERT_EQ(executor.num_threads(), threads);
    BatchResult result = executor.Run(batch);
    EXPECT_EQ(result.threads_used, threads);
    EXPECT_EQ(result.queries, batch.size());
    EXPECT_EQ(result.failed, 0u);
    ASSERT_EQ(result.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(result.statuses[i].ok()) << result.statuses[i].ToString();
      EXPECT_EQ(result.results[i].sids, reference[i])
          << "query " << i << " threads " << threads;
    }
  }
}

TEST_F(BatchExecutorTest, ReportsPerWorkerCostsAndModeledThroughput) {
  auto f = BuildFixture(300);
  ASSERT_NE(f, nullptr);
  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchExecutor executor(*f->index, options);
  BatchResult result = executor.Run(MakeBatch(*f, 80, 22));
  ASSERT_EQ(result.worker_cpu_seconds.size(), 4u);
  ASSERT_EQ(result.worker_io_seconds.size(), 4u);
  EXPECT_GT(result.wall_seconds, 0.0);
  EXPECT_GT(result.wall_qps, 0.0);
  EXPECT_GT(result.modeled_makespan_seconds, 0.0);
  EXPECT_GT(result.modeled_qps, 0.0);
  // Verification fetches cost simulated I/O, which is charged to the
  // issuing worker's private view — so at least one worker saw I/O time.
  double io_total = 0.0;
  for (double s : result.worker_io_seconds) io_total += s;
  EXPECT_GT(io_total, 0.0);
  // Per-query stats carry the view's I/O delta, mirroring serial Query.
  bool any_io = false;
  for (const QueryResult& r : result.results) {
    if (r.stats.io.random_reads > 0) any_io = true;
  }
  EXPECT_TRUE(any_io);
}

TEST_F(BatchExecutorTest, InvalidQueriesFailIndividually) {
  auto f = BuildFixture(100);
  ASSERT_NE(f, nullptr);
  std::vector<BatchQuery> batch = MakeBatch(*f, 5, 33);
  BatchQuery bad;
  bad.query = f->sets[0];
  bad.sigma1 = 0.9;
  bad.sigma2 = 0.2;  // inverted range
  batch.insert(batch.begin() + 2, bad);

  BatchExecutorOptions options;
  options.num_threads = 3;
  BatchExecutor executor(*f->index, options);
  BatchResult result = executor.Run(batch);
  EXPECT_EQ(result.failed, 1u);
  EXPECT_FALSE(result.statuses[2].ok());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i == 2) continue;
    EXPECT_TRUE(result.statuses[i].ok()) << "query " << i;
    auto serial =
        f->index->Query(batch[i].query, batch[i].sigma1, batch[i].sigma2);
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(result.results[i].sids, serial->sids);
  }
}

// Degradation tests need faults to actually fire.
#ifdef SSR_NO_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "built with SSR_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_INJECTION() (void)0
#endif

TEST_F(BatchExecutorTest, LatencyFaultsNeverChangeAnswers) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(200, DegradeMode::kPartialResults);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 40, 44);

  std::vector<std::vector<SetId>> reference;
  for (const BatchQuery& q : batch) {
    auto r = f->index->Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(r.ok());
    reference.push_back(r->sids);
  }

  auto& fi = fault::FaultInjector::Default();
  fi.Enable(fault::SeedFromEnv(0xfeedULL));
  fault::FaultSchedule slow = fault::FaultSchedule::WithProbability(0.3);
  slow.latency_micros = 50.0;
  fi.Arm("store/get", fault::FaultKind::kLatency, slow);
  fi.Arm("index/probe_fi", fault::FaultKind::kLatency, slow);

  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchExecutor executor(*f->index, options);
  BatchResult result = executor.Run(batch);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(fi.total_fires(), 0u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(result.results[i].sids, reference[i]) << "query " << i;
    EXPECT_FALSE(result.results[i].stats.degraded);
  }
}

TEST_F(BatchExecutorTest, PartialResultsUnderReadFaultsShrinkButNeverLie) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildFixture(200, DegradeMode::kPartialResults);
  ASSERT_NE(f, nullptr);
  const auto batch = MakeBatch(*f, 30, 55);

  // Fault-free reference (the faulted run may only lose answers, not
  // invent them; non-degraded queries must match it exactly).
  std::vector<std::vector<SetId>> reference;
  for (const BatchQuery& q : batch) {
    auto r = f->index->Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(r.ok());
    reference.push_back(r->sids);
  }

  auto& fi = fault::FaultInjector::Default();
  // Any seed upholds the invariants; heavy enough to exhaust retries.
  fi.Enable(fault::SeedFromEnv(0xabadULL));
  fi.Arm("store/get", fault::FaultKind::kReadError,
         fault::FaultSchedule::WithProbability(0.6));

  BatchExecutorOptions options;
  options.num_threads = 4;
  BatchExecutor executor(*f->index, options);
  BatchResult result = executor.Run(batch);
  EXPECT_EQ(result.failed, 0u) << "kPartialResults never errors the query";
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& r = result.results[i];
    // Precision is absolute even while degraded.
    EXPECT_TRUE(IsSubset(r.sids, BruteForce(f->sets, batch[i].query,
                                            batch[i].sigma1, batch[i].sigma2)))
        << "query " << i;
    if (r.stats.degraded) {
      ++degraded;
      EXPECT_GT(r.stats.fetch_failures + r.stats.probe_failures, 0u);
      // Fetch faults only drop candidates: a subset of the clean answer.
      EXPECT_TRUE(IsSubset(r.sids, reference[i])) << "query " << i;
    } else {
      EXPECT_EQ(r.sids, reference[i]) << "query " << i;
    }
  }
  EXPECT_GT(degraded, 0u);
}

TEST_F(BatchExecutorTest, QueryThroughScratchReuseMatchesQuery) {
  // The probe-union scratch buffer is an allocation optimization, never a
  // correctness input: one view + one scratch reused across many queries
  // answers identically to fresh serial queries. So is a signature the
  // caller computed with the index's embedding.
  auto f = BuildFixture(200);
  ASSERT_NE(f, nullptr);
  SetStore::ReadView view(f->store);
  std::vector<SetId> scratch;
  for (const BatchQuery& q : MakeBatch(*f, 25, 66)) {
    auto through =
        f->index->QueryThrough(view, q.query, q.sigma1, q.sigma2, &scratch);
    const Signature signature = f->index->embedding().Sign(q.query);
    auto signed_through = f->index->QueryThrough(
        view, q.query, q.sigma1, q.sigma2, &scratch, &signature);
    auto serial = f->index->Query(q.query, q.sigma1, q.sigma2);
    ASSERT_TRUE(through.ok()) << through.status().ToString();
    ASSERT_TRUE(signed_through.ok()) << signed_through.status().ToString();
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(through->sids, serial->sids);
    EXPECT_EQ(through->stats.bucket_accesses, serial->stats.bucket_accesses);
    EXPECT_EQ(signed_through->sids, serial->sids);
    EXPECT_EQ(signed_through->stats.candidates, serial->stats.candidates);
  }
  // A signature of another dimension cannot have come from this index.
  const BatchQuery q = MakeBatch(*f, 1, 67)[0];
  const Signature truncated(
      f->index->embedding().hasher().params().num_hashes - 1);
  auto rejected = f->index->QueryThrough(view, q.query, q.sigma1, q.sigma2,
                                         &scratch, &truncated);
  EXPECT_TRUE(rejected.status().IsInvalidArgument())
      << rejected.status().ToString();
}

}  // namespace
}  // namespace exec
}  // namespace ssr
