// Benchmark-trajectory driver: runs a canonical, pinned-parameter bench
// suite (micro primitives, candidate generation, the Figure 7 harness, the
// Equation 4 filter curve, parallel build scaling, concurrent batch-query
// throughput, sharded scatter/gather scaling, and live-mutability churn
// with online rebalance), profiles every phase
// with hardware-or-fallback perf
// counters, and writes one numbered BENCH_<n>.json trajectory point per
// invocation. Successive points (same machine, same governor —
// compare "env" fingerprints) chart the repo's perf trajectory;
// tools/bench_compare.py diffs two points and flags regressions.
//
// Flags: kFlags below; --help prints them. Any other --flag prints the
// usage to stderr and exits 2 before a suite starts.
//
// Counter profiling degrades down the ladder in obs/perf_counters.h when
// perf_event_open is denied; SSR_PERF_COUNTERS=off forces the run to
// software-only wall/CPU measurements (the CI fallback check).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/index_layout.h"
#include "core/set_similarity_index.h"
#include "core/sfi.h"
#include "eval/harness.h"
#include "exec/batch_executor.h"
#include "exec/epoch.h"
#include "hamming/embedding.h"
#include "minhash/family.h"
#include "obs/chrome_trace.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/shadow_oracle.h"
#include "obs/trace.h"
#include "obs/workload_observer.h"
#include "optimizer/observed_workload.h"
#include "server/http.h"
#include "server/introspection_server.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "storage/recovery.h"
#include "storage/set_store.h"
#include "storage/wal.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "util/stopwatch.h"

namespace ssr {
namespace {

ElementSet RandomSet(Rng& rng, std::size_t size, std::uint64_t universe) {
  ElementSet s;
  s.reserve(size);
  for (std::size_t i = 0; i < size; ++i) s.push_back(rng.Uniform(universe));
  NormalizeSet(s);
  return s;
}

/// Times `iters` calls of `fn` under a ProfileScope, returning ns/op.
template <typename Fn>
double MicroLoop(const std::string& name, std::size_t iters, Fn&& fn) {
  obs::ProfileScope profile(name);
  Stopwatch watch;
  for (std::size_t i = 0; i < iters; ++i) fn(i);
  const double ns =
      watch.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
  std::printf("  %-28s %12.1f ns/op  (%zu iters)\n", name.c_str(), ns,
              iters);
  return ns;
}

int RunMicroSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: micro_primitives (pinned params)");
  Rng rng(0x5eed01);

  const ElementSet a = RandomSet(rng, 250, 1 << 20);
  const ElementSet b = RandomSet(rng, 250, 1 << 20);
  volatile double sink = 0.0;
  report->AddScalar(
      "micro_jaccard_ns",
      MicroLoop("micro_jaccard", quick ? 20000 : 200000,
                [&](std::size_t) { sink = sink + Jaccard(a, b); }));

  EmbeddingParams params;
  params.minhash.num_hashes = 100;
  params.minhash.value_bits = 8;
  auto embedding = Embedding::Create(params);
  if (!embedding.ok()) return 1;
  std::size_t sig_words = 0;
  report->AddScalar(
      "micro_minhash_sign_ns",
      MicroLoop("micro_minhash_sign", quick ? 200 : 2000, [&](std::size_t) {
        sig_words += embedding->Sign(a).values().size();
      }));

  (void)sig_words;
  return 0;
}

/// Signature engine v2 ablation: per-family sign cost at the paper's
/// k = 100 on 250- and 2000-element sets, and a fig7-style accuracy point
/// per family x b — so a family's speed is never quoted without its
/// recall/precision.
int RunSigningSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: signing (signature engine v2 ablation)");
  Rng rng(0x516e);
  const ElementSet one = RandomSet(rng, 250, 1 << 20);
  // Large-set point: classic signing is Theta(k * n) while SuperMinHash is
  // ~O(n + k log k), so the families separate as sets grow. 2000 elements
  // is the web-session long tail the paper's workload generator produces.
  const ElementSet big = RandomSet(rng, 2000, 1 << 21);

  double classic_large_ns = 0.0;
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    EmbeddingParams params;
    params.minhash.num_hashes = 100;
    params.minhash.value_bits = 8;
    params.minhash.family = family;
    auto embedding = Embedding::Create(params);
    if (!embedding.ok()) return 1;
    const std::string name(MinHashFamilyName(family));

    std::size_t sink = 0;
    report->AddScalar(
        "signing_" + name + "_sign_ns",
        MicroLoop("signing_" + name + "_sign", quick ? 500 : 5000,
                  [&](std::size_t) {
                    sink += embedding->Sign(one).values().size();
                  }));

    const double large_ns =
        MicroLoop("signing_" + name + "_sign_large", quick ? 100 : 1000,
                  [&](std::size_t) {
                    sink += embedding->Sign(big).values().size();
                  });
    report->AddScalar("signing_" + name + "_sign_large_ns", large_ns);
    if (family == MinHashFamilyKind::kClassic) {
      classic_large_ns = large_ns;
    } else if (classic_large_ns > 0.0) {
      std::printf("  %-28s %12.2f x vs classic (n=2000)\n",
                  ("signing_" + name + "_speedup").c_str(),
                  classic_large_ns / large_ns);
    }
    (void)sink;
  }

  // Accuracy ablation: the fig7-style bucketed sweep per family (and per b
  // in full runs). Whatever a family saves in signing cost must show up
  // here as recall/precision within noise of classic, or it is not a win.
  const unsigned kBitWidths[] = {8, 4};
  const std::size_t num_widths = quick ? 1 : 2;
  for (std::size_t w = 0; w < num_widths; ++w) {
    for (MinHashFamilyKind family : kAllMinHashFamilies) {
      ExperimentConfig config;
      config.dataset = "set1";
      config.scale = quick ? 0.004 : 0.01;
      config.table_budget = 300;
      config.recall_threshold = 0.7;
      config.num_minhashes = 100;
      config.value_bits = kBitWidths[w];
      config.minhash_family = family;
      config.queries_per_bucket = quick ? 2 : 6;
      config.max_attempts_factor = 12;
      config.run_scan = false;
      auto harness = ExperimentHarness::Create(config);
      if (!harness.ok()) {
        std::fprintf(stderr, "signing harness failed: %s\n",
                     harness.status().ToString().c_str());
        return 1;
      }
      auto result = (*harness)->RunBucketedQueries();
      if (!result.ok()) {
        std::fprintf(stderr, "signing sweep failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const std::string name(MinHashFamilyName(family));
      const std::string prefix =
          "signing_" + name +
          (kBitWidths[w] == 8 ? std::string()
                              : "_b" + std::to_string(kBitWidths[w]));
      std::printf("  %-28s recall %.4f precision %.4f (%zu queries)\n",
                  prefix.c_str(), result->overall_weighted_recall,
                  result->overall_weighted_precision,
                  result->total_queries_run);
      report->AddScalar(prefix + "_recall", result->overall_weighted_recall);
      report->AddScalar(prefix + "_precision",
                        result->overall_weighted_precision);
    }
  }
  return 0;
}

/// Candidate generation through the composite index: the QueryCandidates
/// phase profile (embed / plan / probe_fi) in the trajectory point comes
/// from here.
int RunQueryCandidatesSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: query_candidates (pinned params)");
  Rng rng(0x5eed02);
  const std::size_t collection = quick ? 500 : 2000;
  const std::size_t queries = quick ? 200 : 2000;

  SetStoreOptions store_options;
  store_options.buffer_pool_pages = 64;
  SetStore store(store_options);
  std::vector<ElementSet> sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!store.Add(sets.back()).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions options;
  options.embedding.minhash.num_hashes = 100;
  options.embedding.minhash.value_bits = 8;
  auto index = SetSimilarityIndex::Build(store, layout, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  Stopwatch watch;
  std::uint64_t total_candidates = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    auto result = index->QueryCandidates(sets[i % sets.size()], 0.55, 0.95);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    total_candidates += result->sids.size();
  }
  const double avg_micros =
      watch.ElapsedSeconds() * 1e6 / static_cast<double>(queries);
  std::printf("  %zu queries over %zu sets: %.1f us/query, avg %.1f "
              "candidates\n",
              queries, collection, avg_micros,
              static_cast<double>(total_candidates) /
                  static_cast<double>(queries));
  report->AddScalar("qc_avg_query_micros", avg_micros);
  report->AddScalar("qc_avg_candidates",
                    static_cast<double>(total_candidates) /
                        static_cast<double>(queries));
  return 0;
}

int RunFig7Suite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: fig7_response_time (pinned params)");
  ExperimentConfig config;
  config.dataset = "set1";
  config.scale = quick ? 0.004 : 0.02;
  config.table_budget = 300;
  config.recall_threshold = 0.7;
  config.num_minhashes = 100;
  config.queries_per_bucket = quick ? 2 : 10;
  config.max_attempts_factor = 12;
  config.run_scan = true;

  Stopwatch build_watch;
  auto harness = ExperimentHarness::Create(config);
  if (!harness.ok()) {
    std::fprintf(stderr, "harness failed: %s\n",
                 harness.status().ToString().c_str());
    return 1;
  }
  report->AddScalar("fig7_build_seconds", build_watch.ElapsedSeconds());

  Stopwatch sweep_watch;
  auto result = (*harness)->RunBucketedQueries();
  if (!result.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  report->AddScalar("fig7_sweep_seconds", sweep_watch.ElapsedSeconds());

  double index_io = 0.0, index_cpu = 0.0, scan_total = 0.0;
  std::size_t weighted = 0;
  for (const auto& bucket : result->buckets) {
    index_io += bucket.avg_index_io_seconds * bucket.query_count;
    index_cpu += bucket.avg_index_cpu_seconds * bucket.query_count;
    scan_total += bucket.avg_scan_total_seconds() * bucket.query_count;
    weighted += bucket.query_count;
  }
  const double denom = weighted > 0 ? static_cast<double>(weighted) : 1.0;
  std::printf("  %zu bucketed queries: index %.4f s/query (io %.4f + cpu "
              "%.4f), scan %.4f s/query\n",
              weighted, (index_io + index_cpu) / denom, index_io / denom,
              index_cpu / denom, scan_total / denom);
  report->AddScalar("fig7_avg_index_io_seconds", index_io / denom);
  report->AddScalar("fig7_avg_index_cpu_seconds", index_cpu / denom);
  report->AddScalar("fig7_avg_index_total_seconds",
                    (index_io + index_cpu) / denom);
  report->AddScalar("fig7_avg_scan_total_seconds", scan_total / denom);
  report->AddScalar("fig7_overall_recall", result->overall_weighted_recall);
  report->AddScalar("fig7_overall_precision",
                    result->overall_weighted_precision);
  report->AddScalar("fig7_total_queries",
                    static_cast<std::uint64_t>(result->total_queries_run));
  return 0;
}

int RunFilterCurveSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: filter_curve (pinned params)");
  Rng rng(0x5eed03);
  EmbeddingParams params;
  params.minhash.num_hashes = 100;
  params.minhash.value_bits = 8;
  params.minhash.seed = 0xf117e8;
  auto embedding = Embedding::Create(params);
  if (!embedding.ok()) return 1;

  SfiParams sfi_params;
  sfi_params.s_star = 0.85;
  sfi_params.l = 15;
  Stopwatch build_watch;
  auto sfi = SimilarityFilterIndex::Create(*embedding, sfi_params, 10000);
  if (!sfi.ok()) return 1;
  const std::size_t population = quick ? 1000 : 10000;
  for (std::size_t i = 0; i < population; ++i) {
    sfi->Insert(static_cast<SetId>(i),
                embedding->Sign(RandomSet(rng, 30, 1 << 16)));
  }
  report->AddScalar("filter_curve_build_seconds",
                    build_watch.ElapsedSeconds());
  report->AddScalar("filter_curve_r",
                    static_cast<std::uint64_t>(sfi->filter().r()));

  const Signature query = embedding->Sign(RandomSet(rng, 30, 1 << 16));
  const std::size_t probes = quick ? 200 : 2000;
  volatile std::size_t sink = 0;
  const double probe_ns =
      MicroLoop("filter_curve_probe", probes,
                [&](std::size_t) { sink = sink + sfi->SimVector(query).size(); });
  report->AddScalar("filter_curve_probe_ns", probe_ns);
  (void)sink;
  return 0;
}

/// Parallel index build at 1/2/4/8 workers over one collection. The scaling
/// metric is the modeled makespan (BuildStats::makespan_seconds): serial
/// portions at wall cost plus each parallel phase's busiest-worker CPU time
/// — the build time on a machine that really runs that many cores, which a
/// core-limited CI host cannot show through the wall clock.
int RunBuildScalingSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: build_scaling (pinned params)");
  Rng rng(0x5eed04);
  const std::size_t collection = quick ? 600 : 3000;

  SetStore store;
  for (std::size_t i = 0; i < collection; ++i) {
    if (!store.Add(RandomSet(rng, 60, 1 << 16)).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});

  double serial_makespan = 0.0;
  std::uint64_t serial_digest = 0;
  for (std::size_t threads : {1, 2, 4, 8}) {
    IndexOptions options;
    options.embedding.minhash.num_hashes = 100;
    options.embedding.minhash.value_bits = 8;
    options.num_threads = threads;
    auto index = SetSimilarityIndex::Build(store, layout, options);
    if (!index.ok()) {
      std::fprintf(stderr, "index build failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    const BuildStats& stats = index->build_stats();
    if (threads == 1) {
      serial_makespan = stats.makespan_seconds;
      serial_digest = index->ContentDigest();
    } else if (index->ContentDigest() != serial_digest) {
      std::fprintf(stderr, "parallel build diverged at %zu threads\n",
                   threads);
      return 1;
    }
    const double speedup = stats.makespan_seconds > 0.0
                               ? serial_makespan / stats.makespan_seconds
                               : 0.0;
    // Milliseconds: the quick build takes a few. The serial part is what
    // the two parallel phases' makespans leave of the modeled total.
    const double serial_seconds = stats.makespan_seconds -
                                  stats.sign_makespan_seconds -
                                  stats.insert_makespan_seconds;
    std::printf("  %zu thread(s): makespan %.3f ms = serial %.3f + sign %.3f "
                "+ insert %.3f (wall %.3f ms, sign %.3f + insert %.3f "
                "cpu-ms)  speedup %.2fx\n",
                threads, stats.makespan_seconds * 1e3, serial_seconds * 1e3,
                stats.sign_makespan_seconds * 1e3,
                stats.insert_makespan_seconds * 1e3, stats.wall_seconds * 1e3,
                stats.sign_cpu_seconds * 1e3, stats.insert_cpu_seconds * 1e3,
                speedup);
    const std::string prefix = "build_scaling_t" + std::to_string(threads);
    report->AddScalar(prefix + "_makespan_seconds", stats.makespan_seconds);
    if (threads > 1) {
      report->AddScalar(prefix + "_speedup", speedup);
    }
  }
  return 0;
}

/// Concurrent batch-query throughput at 1/2/4/8 workers against one
/// immutable index. QPS is reported from the modeled makespan (busiest
/// worker's CPU + its simulated I/O) alongside the honest wall-clock QPS;
/// only the former can exceed 1x scaling when CI grants a single core.
int RunQueryThroughputSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: query_throughput (pinned params)");
  Rng rng(0x5eed05);
  const std::size_t collection = quick ? 500 : 2000;
  const std::size_t batch_size = quick ? 300 : 1500;

  SetStoreOptions store_options;
  store_options.buffer_pool_pages = 64;
  SetStore store(store_options);
  std::vector<ElementSet> sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!store.Add(sets.back()).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions options;
  options.embedding.minhash.num_hashes = 100;
  options.embedding.minhash.value_bits = 8;
  auto index = SetSimilarityIndex::Build(store, layout, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  std::vector<exec::BatchQuery> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    exec::BatchQuery q;
    q.query = sets[i % sets.size()];
    q.sigma1 = 0.55;
    q.sigma2 = 0.95;
    batch.push_back(std::move(q));
  }

  double serial_qps = 0.0;
  for (std::size_t threads : {1, 2, 4, 8}) {
    exec::BatchExecutorOptions exec_options;
    exec_options.num_threads = threads;
    exec::BatchExecutor executor(*index, exec_options);
    exec::BatchResult result = executor.Run(batch);
    if (result.failed != 0) {
      std::fprintf(stderr, "%zu batch queries failed\n", result.failed);
      return 1;
    }
    if (threads == 1) serial_qps = result.modeled_qps;
    const double speedup =
        serial_qps > 0.0 ? result.modeled_qps / serial_qps : 0.0;
    std::printf("  %zu thread(s): modeled %.0f qps (makespan %.3f s), wall "
                "%.0f qps  speedup %.2fx\n",
                threads, result.modeled_qps, result.modeled_makespan_seconds,
                result.wall_qps, speedup);
    const std::string prefix = "query_throughput_t" + std::to_string(threads);
    report->AddScalar(prefix + "_modeled_qps", result.modeled_qps);
    if (threads > 1) {
      report->AddScalar(prefix + "_speedup", speedup);
    }
  }
  return 0;
}

/// Sharded scatter/gather throughput at P in {1, 2, 4} shards, each query
/// routed through a QueryRouter, which runs every shard on the calling
/// thread. Reports the wall-clock routed QPS, timed over repeated passes of
/// the batch totalling at least 0.2 s per shard count, and its speedup over
/// P=1 (the cost of splitting one query's work across P shards). Every routed
/// answer is cross-checked against an unsharded index; a divergence fails
/// the run, so the trajectory never charts a wrong-answer speedup.
int RunShardScalingSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: shard_scaling (pinned params)");
  Rng rng(0x5eed06);
  const std::size_t collection = quick ? 500 : 2000;
  const std::size_t batch_size = quick ? 300 : 1500;
  constexpr double kMinRoutedSeconds = 0.2;  // per shard count

  SetCollection sets;
  sets.reserve(collection);
  SetStore store;
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!store.Add(sets.back()).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions index_options;
  index_options.embedding.minhash.num_hashes = 100;
  index_options.embedding.minhash.value_bits = 8;

  std::vector<exec::BatchQuery> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    exec::BatchQuery q;
    q.query = sets[i % sets.size()];
    q.sigma1 = 0.55;
    q.sigma2 = 0.95;
    batch.push_back(std::move(q));
  }

  // The unsharded reference answers for the cross-check.
  auto reference = SetSimilarityIndex::Build(store, layout, index_options);
  if (!reference.ok()) {
    std::fprintf(stderr, "reference build failed: %s\n",
                 reference.status().ToString().c_str());
    return 1;
  }
  exec::BatchExecutorOptions ref_options;
  ref_options.num_threads = 4;
  exec::BatchExecutor ref_executor(*reference, ref_options);
  const exec::BatchResult ref_result = ref_executor.Run(batch);
  if (ref_result.failed != 0) {
    std::fprintf(stderr, "reference batch failed\n");
    return 1;
  }

  double p1_qps = 0.0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    shard::ShardedIndexOptions options;
    options.num_shards = shards;
    options.index = index_options;
    auto index = shard::ShardedSetSimilarityIndex::Build(sets, layout,
                                                         options);
    if (!index.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   index.status().ToString().c_str());
      return 1;
    }
    shard::QueryRouter router(*index);
    // One pass takes a few ms at --quick size, too short for a stable qps.
    double wall_seconds = 0.0;  // the routed calls alone, not the check
    std::size_t routed_queries = 0;
    while (wall_seconds < kMinRoutedSeconds) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        Stopwatch wall;
        auto routed = router.Query(batch[i].query, batch[i].sigma1,
                                   batch[i].sigma2);
        wall_seconds += wall.ElapsedSeconds();
        if (!routed.ok()) {
          std::fprintf(stderr, "routed query %zu failed at P=%u: %s\n", i,
                       shards, routed.status().ToString().c_str());
          return 1;
        }
        if (routed->sids != ref_result.results[i].sids) {
          std::fprintf(stderr,
                       "routed answer diverged from the unsharded index at "
                       "P=%u, query %zu\n",
                       shards, i);
          return 1;
        }
      }
      routed_queries += batch.size();
    }
    const double qps = static_cast<double>(routed_queries) / wall_seconds;
    if (shards == 1) p1_qps = qps;
    const double speedup = p1_qps > 0.0 ? qps / p1_qps : 0.0;
    std::printf("  P=%u: %.0f qps (%zu queries, wall %.3f s)  speedup "
                "%.2fx\n",
                shards, qps, routed_queries, wall_seconds, speedup);
    const std::string prefix = "shard_scaling_p" + std::to_string(shards);
    report->AddScalar(prefix + "_qps", qps);
    if (shards > 1) {
      report->AddScalar(prefix + "_speedup", speedup);
    }
  }
  return 0;
}

/// Live mutability under load (DESIGN.md §16): writer threads drive
/// Insert/Erase churn against a P=3 sharded index while reader threads
/// time individual queries, then a grow(6)/shrink(3) rebalance cycle runs
/// with the readers still going. Charts the concurrent mutation rate, the
/// reader p99 while the index is mutating underneath it, and the rebalance
/// migration rate. Like the shard_scaling cross-check, correctness is a
/// hard invariant, not a metric: every concurrent answer must be
/// well-formed (sorted, unique, rebalancing implies partial) and after the
/// churn quiesces a full-range query must return exactly the surviving
/// sids on exactly the original shard count — a divergence fails the run.
int RunChurnSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: churn (writers vs readers vs rebalance)");
  obs::ProfileScope profile("churn_suite");
  Rng rng(0x5eed0c);
  const std::size_t collection = quick ? 400 : 1600;
  const std::size_t ops_per_writer = quick ? 400 : 1600;
  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr std::uint32_t kHomeShards = 3;

  SetCollection sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions index_options;
  index_options.embedding.minhash.num_hashes = 100;
  index_options.embedding.minhash.value_bits = 8;

  shard::ShardedIndexOptions options;
  options.num_shards = kHomeShards;
  options.index = index_options;
  auto index = shard::ShardedSetSimilarityIndex::Build(sets, layout, options);
  if (!index.ok()) {
    std::fprintf(stderr, "churn build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  exec::EpochManager epochs;
  index->EnableConcurrentWrites(&epochs);

  std::vector<ElementSet> probes;
  for (int i = 0; i < 64; ++i) probes.push_back(RandomSet(rng, 40, 1 << 16));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reader_failures{0};
  std::vector<std::vector<double>> latencies(kReaders);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::vector<double>& lat = latencies[r];
      lat.reserve(4096);
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const ElementSet& probe = probes[i++ % probes.size()];
        Stopwatch watch;
        auto answer = index->Query(probe, 0.55, 0.95);
        lat.push_back(watch.ElapsedSeconds() * 1e6);
        if (!answer.ok() ||
            !std::is_sorted(answer->sids.begin(), answer->sids.end()) ||
            std::adjacent_find(answer->sids.begin(), answer->sids.end()) !=
                answer->sids.end() ||
            (answer->rebalancing && !answer->partial)) {
          reader_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  // Writers own disjoint sid ranges above the built collection, so the
  // surviving sid set is exactly reconstructible for the final cross-check.
  std::vector<std::vector<std::pair<SetId, ElementSet>>> survivors(kWriters);
  std::atomic<std::size_t> writer_failures{0};
  Stopwatch churn_watch;
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Rng wrng(0xc4000 + w);
      SetId next = collection + static_cast<SetId>(w) * (ops_per_writer + 1);
      std::vector<std::pair<SetId, ElementSet>> mine;
      for (std::size_t op = 0; op < ops_per_writer; ++op) {
        if (mine.size() < 8 || wrng.Bernoulli(0.6)) {
          ElementSet set = RandomSet(wrng, 40, 1 << 16);
          if (set.empty()) set.push_back(1);
          if (index->Insert(next, set).ok()) {
            mine.emplace_back(next, std::move(set));
          } else {
            writer_failures.fetch_add(1, std::memory_order_relaxed);
          }
          ++next;
        } else {
          const std::size_t pick = wrng.Uniform(mine.size());
          if (!index->Erase(mine[pick].first).ok()) {
            writer_failures.fetch_add(1, std::memory_order_relaxed);
          }
          mine.erase(mine.begin() + pick);
        }
      }
      survivors[w] = std::move(mine);
    });
  }
  for (std::thread& t : writers) t.join();
  const double churn_seconds = churn_watch.ElapsedSeconds();
  const double mutation_ops =
      static_cast<double>(kWriters) * static_cast<double>(ops_per_writer);

  // Online rebalance with the readers still running: grow to 2P, shrink
  // back home. Timed across both cycles; the migration rate is what an
  // operator watches while resharding a live deployment.
  bool rebalance_failed = false;
  std::size_t total_moves = 0;
  Stopwatch rebalance_watch;
  for (std::uint32_t target : {kHomeShards * 2, kHomeShards}) {
    if (!index->BeginRebalance(target).ok()) {
      rebalance_failed = true;
      break;
    }
    for (;;) {
      auto remaining = index->StepRebalance(8);
      if (!remaining.ok()) {
        rebalance_failed = true;
        break;
      }
      if (*remaining == 0) break;
    }
    if (rebalance_failed) break;
    total_moves += index->rebalance_status().moves_done;
    if (!index->FinishRebalance().ok()) {
      rebalance_failed = true;
      break;
    }
  }
  const double rebalance_seconds = rebalance_watch.ElapsedSeconds();

  stop.store(true);
  for (std::thread& t : readers) t.join();
  epochs.Quiesce();

  if (rebalance_failed) {
    std::fprintf(stderr, "churn rebalance cycle failed\n");
    return 1;
  }
  if (writer_failures.load() != 0 || reader_failures.load() != 0) {
    std::fprintf(stderr,
                 "churn invariants violated: %zu writer, %zu reader\n",
                 writer_failures.load(), reader_failures.load());
    return 1;
  }

  // Settled cross-check: exactly the surviving sids, back on P=3.
  std::vector<SetId> expect;
  for (SetId sid = 0; sid < collection; ++sid) expect.push_back(sid);
  for (const auto& mine : survivors) {
    for (const auto& entry : mine) expect.push_back(entry.first);
  }
  std::sort(expect.begin(), expect.end());
  auto settled = index->Query(probes.front(), 0.0, 1.0);
  if (!settled.ok() || settled->sids != expect || settled->rebalancing ||
      settled->partial || index->num_shards() != kHomeShards) {
    std::fprintf(stderr,
                 "churn settled cross-check diverged (%zu answered, %zu "
                 "expected, P=%u)\n",
                 settled.ok() ? settled->sids.size() : std::size_t{0},
                 expect.size(), index->num_shards());
    return 1;
  }

  std::vector<double> all_lat;
  for (const std::vector<double>& lat : latencies) {
    all_lat.insert(all_lat.end(), lat.begin(), lat.end());
  }
  std::sort(all_lat.begin(), all_lat.end());
  const double p99 =
      all_lat.empty()
          ? 0.0
          : all_lat[std::min(all_lat.size() - 1,
                             (all_lat.size() * 99) / 100)];
  const double mutation_rate =
      churn_seconds > 0.0 ? mutation_ops / churn_seconds : 0.0;
  const double move_rate = rebalance_seconds > 0.0
                               ? static_cast<double>(total_moves) /
                                     rebalance_seconds
                               : 0.0;
  std::printf("  %.0f mutations in %.3f s (%.0f ops/s), reader p99 %.1f us "
              "over %zu queries\n",
              mutation_ops, churn_seconds, mutation_rate, p99,
              all_lat.size());
  std::printf("  rebalance %u->%u->%u: %zu moves in %.3f s (%.0f moves/s)\n",
              kHomeShards, kHomeShards * 2, kHomeShards, total_moves,
              rebalance_seconds, move_rate);
  report->AddScalar("churn_mutation_ops_per_sec", mutation_rate);
  report->AddScalar("churn_reader_p99_micros", p99);
  report->AddScalar("churn_rebalance_moves_per_sec", move_rate);
  return 0;
}

/// Workload record → checksummed save/load → replay. Runs a deterministic
/// mixed-threshold batch with full observability attached (observer +
/// 1-in-1 query-log recorder + shadow-oracle estimator), round-trips the
/// log through its binary format, replays every recorded query against the
/// same index, and requires every replayed answer digest to match the
/// recorded one — replay bit-stability is a hard invariant like the shard
/// cross-check, not a charted metric. Reports replay throughput, log size,
/// the shadow oracle's observed recall/precision, and the mass median of
/// the captured threshold distribution (the δ a workload-driven
/// re-optimization would use).
int RunReplaySuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: replay (record -> save/load -> replay)");
  Rng rng(0x5eed07);
  const std::size_t collection = quick ? 400 : 1500;
  const std::size_t batch_size = quick ? 200 : 1000;

  SetStoreOptions store_options;
  store_options.buffer_pool_pages = 64;
  SetStore store(store_options);
  std::vector<ElementSet> sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!store.Add(sets.back()).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions options;
  options.embedding.minhash.num_hashes = 100;
  options.embedding.minhash.value_bits = 8;
  auto index = SetSimilarityIndex::Build(store, layout, options);
  if (!index.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }

  // A deterministic mixed-threshold batch. Each query is a stored set with
  // k of its 40 elements replaced — Jaccard to its base ≈ (40−k)/(40+k) —
  // and a range bracketing that similarity, so every range shape has real
  // answers and the shadow oracle's recall/precision measure something:
  //   k =  4 → J ≈ 0.82 in [0.70, 1.00]     k = 18 → J ≈ 0.38 in [0.25, 0.55]
  //   k = 10 → J ≈ 0.60 in [0.45, 0.80]     k = 30 → J ≈ 0.14 in [0.05, 0.35]
  constexpr std::size_t kReplacements[] = {4, 10, 18, 30};
  constexpr double kRanges[][2] = {
      {0.70, 1.00}, {0.45, 0.80}, {0.25, 0.55}, {0.05, 0.35}};
  std::vector<exec::BatchQuery> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    const ElementSet& base = sets[i % sets.size()];
    const std::size_t k = kReplacements[i % 4];
    ElementSet query(base.begin() + k, base.end());
    for (std::size_t j = 0; j < k; ++j) query.push_back(rng.Uniform(1 << 16));
    NormalizeSet(query);
    exec::BatchQuery q;
    q.query = std::move(query);
    q.sigma1 = kRanges[i % 4][0];
    q.sigma2 = kRanges[i % 4][1];
    batch.push_back(std::move(q));
  }

  obs::WorkloadObserverOptions obs_options;
  obs_options.metrics_scope =
      obs::MetricsRegistry::Default().NewScope("bench_replay");
  obs::WorkloadObserver observer(obs_options);
  obs::QueryLogRecorder recorder(/*sample_every=*/1);
  obs::ShadowOracleOptions oracle_options;
  oracle_options.sample_every = quick ? 8 : 16;
  obs::ShadowOracleEstimator oracle(store, oracle_options);
  observer.set_recorder(&recorder);
  observer.set_shadow_oracle(&oracle);

  exec::BatchExecutorOptions record_options;
  record_options.num_threads = 4;
  record_options.workload_observer = &observer;
  exec::BatchExecutor record_executor(*index, record_options);
  const exec::BatchResult live = record_executor.Run(batch);
  if (live.failed != 0) {
    std::fprintf(stderr, "%zu recorded queries failed\n", live.failed);
    return 1;
  }

  // Round-trip the log through its checksummed binary format.
  obs::QueryLog log = recorder.TakeLog();
  std::stringstream buffer;
  const Status save_status = log.SaveTo(buffer);
  if (!save_status.ok()) {
    std::fprintf(stderr, "query log save failed: %s\n",
                 save_status.ToString().c_str());
    return 1;
  }
  const std::string bytes = buffer.str();
  std::istringstream in(bytes);
  auto loaded = obs::QueryLog::Load(in);
  if (!loaded.ok()) {
    std::fprintf(stderr, "query log load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  if (loaded->queries.size() != log.queries.size()) {
    std::fprintf(stderr, "query log round trip lost queries: %zu != %zu\n",
                 loaded->queries.size(), log.queries.size());
    return 1;
  }

  std::vector<exec::BatchQuery> replay_batch;
  replay_batch.reserve(loaded->queries.size());
  for (const obs::RecordedQuery& q : loaded->queries) {
    exec::BatchQuery b;
    b.query = q.query;
    b.sigma1 = q.sigma1;
    b.sigma2 = q.sigma2;
    replay_batch.push_back(std::move(b));
  }
  exec::BatchExecutorOptions replay_options;
  replay_options.num_threads = 4;
  exec::BatchExecutor replay_executor(*index, replay_options);
  const exec::BatchResult replayed = replay_executor.Run(replay_batch);
  if (replayed.failed != 0) {
    std::fprintf(stderr, "%zu replayed queries failed\n", replayed.failed);
    return 1;
  }
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < replay_batch.size(); ++i) {
    const obs::RecordedQuery& recorded = loaded->queries[i];
    if (replayed.results[i].sids.size() != recorded.result_count ||
        obs::QueryAnswerDigest(replayed.results[i].sids) !=
            recorded.result_digest) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "replay diverged from the recorded answers on %zu of %zu "
                 "queries\n",
                 mismatches, replay_batch.size());
    return 1;
  }

  const obs::ShadowBucketStats shadow = oracle.overall();
  const double mass_median =
      ObservedThresholdDistribution(observer.Snapshot()).MassMedian();
  std::printf("  recorded %zu queries (%zu bytes), replay modeled %.0f qps, "
              "0 digest mismatches\n",
              log.queries.size(), bytes.size(), replayed.modeled_qps);
  std::printf("  shadow oracle: %llu/%llu sampled, observed recall %.4f, "
              "candidate precision %.4f\n",
              static_cast<unsigned long long>(oracle.sampled()),
              static_cast<unsigned long long>(oracle.offered()),
              shadow.MeanRecall(), shadow.MeanPrecision());
  std::printf("  captured workload mass median (delta for re-optimize): "
              "%.3f\n",
              mass_median);
  report->AddScalar("replay_recorded_queries",
                    static_cast<double>(log.queries.size()));
  report->AddScalar("replay_log_bytes", static_cast<double>(bytes.size()));
  report->AddScalar("replay_modeled_qps", replayed.modeled_qps);
  report->AddScalar("replay_match_fraction", 1.0);  // enforced above
  report->AddScalar("replay_shadow_sampled",
                    static_cast<double>(oracle.sampled()));
  report->AddScalar("replay_observed_recall", shadow.MeanRecall());
  report->AddScalar("replay_candidate_precision", shadow.MeanPrecision());
  report->AddScalar("replay_workload_mass_median", mass_median);
  return 0;
}

/// Durable-mutation cost and recovery time (storage/wal.h + recovery.h).
/// For each fsync policy (every-record, every-8 group commit, on-checkpoint)
/// the suite recovers an identical baseline index from one checkpoint,
/// attaches a WAL under that policy, and runs the same seeded churn:
/// per-mutation p50/p99 latency charts the write-path durability tax, ops/s
/// the sustainable churn rate. The every-record run's log is then recovered
/// from — at half length and full length — charting recovery time as the
/// log grows; the fully recovered index must digest-match the churned
/// baseline (a hard invariant, not a charted metric).
int RunDurabilitySuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: durability (pinned params)");
  Rng rng(0x5eed08);
  const std::size_t collection = quick ? 400 : 1500;
  const std::size_t churn_ops = quick ? 400 : 2000;

  SetStore build_store;
  std::vector<ElementSet> sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!build_store.Add(sets.back()).ok()) {
      std::fprintf(stderr, "store add failed\n");
      return 1;
    }
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  IndexOptions options;
  options.embedding.minhash.num_hashes = 100;
  options.embedding.minhash.value_bits = 8;
  auto built = SetSimilarityIndex::Build(build_store, layout, options);
  if (!built.ok()) {
    std::fprintf(stderr, "index build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::ostringstream ckpt_out;
  if (!WriteIndexCheckpoint(*built, /*stable_lsn=*/0, ckpt_out).ok()) {
    std::fprintf(stderr, "checkpoint write failed\n");
    return 1;
  }
  const std::string checkpoint = ckpt_out.str();

  // The seeded churn script, shared across policies so their logs and
  // latency distributions measure the same work.
  struct ChurnOp {
    bool insert = false;
    SetId sid = kInvalidSetId;
    ElementSet set;
  };
  std::vector<ChurnOp> script;
  {
    std::vector<SetId> live;
    for (SetId sid = 0; sid < collection; ++sid) live.push_back(sid);
    SetId next_sid = static_cast<SetId>(collection);
    for (std::size_t i = 0; i < churn_ops; ++i) {
      ChurnOp op;
      op.insert = live.size() <= 16 || rng.NextDouble() < 0.55;
      if (op.insert) {
        op.sid = next_sid++;
        op.set = RandomSet(rng, 40, 1 << 16);
        live.push_back(op.sid);
      } else {
        const std::size_t pick =
            static_cast<std::size_t>(rng.Uniform(live.size()));
        op.sid = live[pick];
        live.erase(live.begin() + pick);
      }
      script.push_back(std::move(op));
    }
  }

  struct Policy {
    const char* name;
    WalOptions wal;
  };
  Policy policies[3];
  policies[0] = {"sync_every_record", {}};
  policies[1].name = "sync_every_8";
  policies[1].wal.sync_policy = WalSyncPolicy::kEveryN;
  policies[1].wal.sync_every_n = 8;
  policies[2].name = "sync_on_checkpoint";
  policies[2].wal.sync_policy = WalSyncPolicy::kOnCheckpoint;

  std::string captured_wal;          // the every-record run's log
  std::uint64_t churned_digest = 0;  // its post-churn index digest

  for (const Policy& policy : policies) {
    std::istringstream ckpt_in(checkpoint);
    auto rec = RecoverIndex(ckpt_in, /*wal=*/nullptr);
    if (!rec.ok()) {
      std::fprintf(stderr, "baseline recovery failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::ostringstream wal_stream;
    WalWriter wal(wal_stream, kWalFirstLsn, policy.wal);
    rec->index->AttachWal(&wal);

    std::vector<double> latencies;
    latencies.reserve(script.size());
    Stopwatch churn_watch;
    for (const ChurnOp& op : script) {
      Stopwatch op_watch;
      Status st;
      if (op.insert) {
        auto sid = rec->store->Add(op.set);
        st = sid.ok() ? rec->index->Insert(op.sid, op.set) : sid.status();
      } else {
        st = rec->index->Erase(op.sid);
        if (st.ok()) st = rec->store->Delete(op.sid);
      }
      if (!st.ok()) {
        std::fprintf(stderr, "churn op failed under %s: %s\n", policy.name,
                     st.ToString().c_str());
        return 1;
      }
      latencies.push_back(op_watch.ElapsedSeconds() * 1e6);
    }
    if (!wal.Sync().ok()) {
      std::fprintf(stderr, "final sync failed under %s\n", policy.name);
      return 1;
    }
    const double wall = churn_watch.ElapsedSeconds();
    rec->index->AttachWal(nullptr);

    std::sort(latencies.begin(), latencies.end());
    const double p50 = latencies[latencies.size() / 2];
    const double p99 = latencies[latencies.size() * 99 / 100];
    const double ops_per_sec =
        wall > 0.0 ? static_cast<double>(script.size()) / wall : 0.0;
    std::printf("  %-18s p50 %8.2f us  p99 %8.2f us  %9.0f ops/s  "
                "(%llu synced, %llu wal bytes)\n",
                policy.name, p50, p99, ops_per_sec,
                static_cast<unsigned long long>(wal.synced_lsn()),
                static_cast<unsigned long long>(wal.bytes_written()));
    const std::string prefix = std::string("durability_") + policy.name;
    report->AddScalar(prefix + "_mutation_p50_micros", p50);
    report->AddScalar(prefix + "_mutation_p99_micros", p99);
    report->AddScalar(prefix + "_ops_per_sec", ops_per_sec);

    if (policy.wal.sync_policy == WalSyncPolicy::kEveryRecord) {
      captured_wal = wal_stream.str();
      churned_digest = rec->index->ContentDigest();
      report->AddScalar("durability_wal_bytes",
                        static_cast<double>(captured_wal.size()));
    }
  }

  // Recovery time vs log length: replay half the log, then all of it.
  // Each cut is a fresh log rebuilt with exactly that many records, so the
  // replayed-record count is exact and the charted time scales with log
  // length alone.
  std::vector<WalRecord> records;
  WalReadStats wal_stats;
  {
    std::istringstream in(captured_wal);
    if (!ReadWal(in, &records, &wal_stats).ok()) {
      std::fprintf(stderr, "captured wal read back failed\n");
      return 1;
    }
  }
  const struct {
    const char* key;
    std::size_t count;
  } cuts[] = {{"durability_half_log_recovery_seconds", records.size() / 2},
              {"durability_full_log_recovery_seconds", records.size()}};
  for (const auto& cut : cuts) {
    // Rebuild a prefix log with exactly cut.count records.
    std::ostringstream prefix_stream;
    WalWriter prefix_wal(prefix_stream, kWalFirstLsn);
    for (std::size_t i = 0; i < cut.count; ++i) {
      const WalRecord& r = records[i];
      const auto appended = r.type == WalRecordType::kInsert
                                ? prefix_wal.AppendInsert(r.sid, r.set)
                                : prefix_wal.AppendErase(r.sid);
      if (!appended.ok()) {
        std::fprintf(stderr, "prefix wal rebuild failed\n");
        return 1;
      }
    }
    std::istringstream ckpt_in(checkpoint);
    std::istringstream wal_in(prefix_stream.str());
    Stopwatch recover_watch;
    auto rec = RecoverIndex(ckpt_in, &wal_in);
    const double seconds = recover_watch.ElapsedSeconds();
    if (!rec.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    if (rec->report.wal_records_replayed != cut.count) {
      std::fprintf(stderr, "recovery replayed %llu of %zu records\n",
                   static_cast<unsigned long long>(
                       rec->report.wal_records_replayed),
                   cut.count);
      return 1;
    }
    if (cut.count == records.size() &&
        rec->index->ContentDigest() != churned_digest) {
      std::fprintf(stderr,
                   "recovered index diverged from the churned baseline\n");
      return 1;
    }
    std::printf("  recover %5zu records: %.4f s (%.0f records/s)\n",
                cut.count, seconds,
                seconds > 0.0 ? static_cast<double>(cut.count) / seconds
                              : 0.0);
    report->AddScalar(cut.key, seconds);
  }
  report->AddScalar("durability_recovered_records",
                    static_cast<double>(records.size()));
  return 0;
}

/// The introspection plane scraping itself mid-run: a sharded index behind
/// a QueryRouter feeds the SLO tracker through the router's cumulative
/// instruments, and after every query round the suite GETs /metrics over a
/// real localhost socket and runs the exposition through the conformance
/// validator — any malformed line (torn histogram family included) fails
/// the run. The health ladder is exercised end to end: quarantining one
/// shard must flip /healthz from "healthy" to "degraded" (still HTTP 200 —
/// degraded keeps serving) and un-quarantining must flip it back. Charted
/// scalars are the windowed SLO view of the routed queries (p50/p99 over
/// the 1h window) plus the error-budget burn rate and the scrape cost.
int RunIntrospectionSuite(bool quick, RunReport* report) {
  bench::PrintHeader("suite: introspection (self-scrape mid-run)");
  Rng rng(0x5eed09);
  const std::size_t collection = quick ? 300 : 1200;
  const std::size_t rounds = 3;
  const std::size_t queries_per_round = quick ? 60 : 300;

  SetCollection sets;
  sets.reserve(collection);
  for (std::size_t i = 0; i < collection; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 8, 0});
  shard::ShardedIndexOptions options;
  options.num_shards = 2;
  options.index.embedding.minhash.num_hashes = 100;
  options.index.embedding.minhash.value_bits = 8;
  auto index = shard::ShardedSetSimilarityIndex::Build(sets, layout, options);
  if (!index.ok()) {
    std::fprintf(stderr, "sharded build failed: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  shard::QueryRouter router(*index);

  auto& registry = obs::MetricsRegistry::Default();
  server::IntrospectionServerOptions server_options;
  server_options.tick_interval_seconds = 0.0;  // the suite drives Tick
  server::IntrospectionServer server(server_options);
  server::StatusSources sources;
  sources.sharded_index = &*index;
  sources.slo_latency =
      registry.GetHistogram("ssr_router_query_latency_micros",
                            router.metrics_scope(),
                            obs::LatencyBoundsMicros());
  sources.slo_total = registry.GetCounter("ssr_router_queries_total");
  sources.slo_errors =
      registry.GetCounter("ssr_router_partial_answers_total");
  server.SetSources(sources);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "introspection server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("  serving on 127.0.0.1:%u\n",
              static_cast<unsigned>(server.port()));

  auto scrape = [&](const char* path) {
    return server::HttpGet("127.0.0.1", server.port(), path);
  };

  std::size_t scrape_bytes = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t q = 0; q < queries_per_round; ++q) {
      auto result = router.Query(sets[(round * queries_per_round + q) %
                                      sets.size()],
                                 0.55, 0.95);
      if (!result.ok()) {
        std::fprintf(stderr, "routed query failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    server.Tick(server.NowSeconds());
    const server::HttpGetResult metrics = scrape("/metrics");
    if (!metrics.ok || metrics.status != 200) {
      std::fprintf(stderr, "mid-run /metrics scrape failed: %s (status %d)\n",
                   metrics.error.c_str(), metrics.status);
      return 1;
    }
    const auto issues = obs::ValidateExposition(metrics.body);
    if (!issues.empty()) {
      std::fprintf(stderr,
                   "malformed /metrics exposition in round %zu:\n%s",
                   round, obs::FormatIssues(issues).c_str());
      return 1;
    }
    scrape_bytes = metrics.body.size();
  }

  // The health ladder end to end: healthy with every shard live, degraded
  // (but still HTTP 200) with one shard quarantined, healthy again after
  // the quarantine lifts. Mutating the degraded flag is only legal with no
  // query in flight, which is the case between rounds.
  const auto expect_health = [&](const char* want_status,
                                 const char* want_code) {
    const server::HttpGetResult health = scrape("/healthz");
    if (!health.ok || health.status != 200) {
      std::fprintf(stderr, "/healthz scrape failed: %s (status %d)\n",
                   health.error.c_str(), health.status);
      return false;
    }
    std::string needle = "\"status\":\"";
    needle += want_status;
    needle += '"';
    if (health.body.find(needle) == std::string::npos) {
      std::fprintf(stderr, "/healthz expected %s, got: %s\n", want_status,
                   health.body.c_str());
      return false;
    }
    if (want_code != nullptr &&
        health.body.find(want_code) == std::string::npos) {
      std::fprintf(stderr, "/healthz missing reason %s, got: %s\n",
                   want_code, health.body.c_str());
      return false;
    }
    return true;
  };
  if (!expect_health("healthy", nullptr)) return 1;
  index->SetShardDegraded(0, true);
  if (!expect_health("degraded", "shard_quarantine")) {
    index->SetShardDegraded(0, false);
    return 1;
  }
  index->SetShardDegraded(0, false);
  if (!expect_health("healthy", nullptr)) return 1;
  std::printf("  /healthz flipped healthy -> degraded -> healthy with the "
              "shard quarantine\n");

  // Every other endpoint must answer over the socket.
  for (const char* path : {"/statusz", "/tracez?limit=32", "/varz"}) {
    const server::HttpGetResult page = scrape(path);
    if (!page.ok || page.status != 200 || page.body.empty()) {
      std::fprintf(stderr, "GET %s failed: %s (status %d)\n", path,
                   page.error.c_str(), page.status);
      return 1;
    }
  }

  const obs::SloWindowReport window =
      server.slo_tracker().Report(obs::kSloWindowHour, server.NowSeconds());
  std::printf("  %llu routed queries: p50 %.1f us, p99 %.1f us, "
              "availability %.6f, burn %.3f\n",
              static_cast<unsigned long long>(window.total),
              window.p50_micros, window.p99_micros, window.availability,
              window.burn_rate);
  std::printf("  %zu scrapes served, last /metrics %zu bytes\n",
              static_cast<std::size_t>(server.requests_served()),
              scrape_bytes);
  report->AddScalar("introspection_query_p50_micros", window.p50_micros);
  report->AddScalar("introspection_query_p99_micros", window.p99_micros);
  report->AddScalar("introspection_availability_burn_rate",
                    window.burn_rate);
  report->AddScalar("introspection_scrape_bytes",
                    static_cast<double>(scrape_bytes));
  report->AddScalar("introspection_requests_served",
                    static_cast<double>(server.requests_served()));
  server.Stop();
  return 0;
}

/// First free BENCH_<n>.json slot in `dir` (the trajectory is append-only).
std::string NextTrajectoryPath(const std::string& dir) {
  for (int n = 0;; ++n) {
    // Built with append: `const char* + string&&` operator+ chains trip the
    // GCC 12 -Wrestrict false positive (PR105329) under -O2 -Werror.
    std::string name = "BENCH_";
    name += std::to_string(n);
    name += ".json";
    const std::filesystem::path candidate = std::filesystem::path(dir) / name;
    if (!std::filesystem::exists(candidate)) return candidate.string();
  }
}

/// The canonical suite table: name, one-line description, entry point.
/// --list prints it; --only is validated against it before anything runs.
struct Suite {
  const char* name;
  const char* description;
  int (*run)(bool quick, RunReport* report);
};

constexpr Suite kSuites[] = {
    {"micro", "single-thread primitive costs (jaccard, sign)",
     RunMicroSuite},
    {"signing", "signature engine v2: per-family sign cost + accuracy",
     RunSigningSuite},
    {"query_candidates", "candidate generation through the composite index",
     RunQueryCandidatesSuite},
    {"fig7", "Figure 7 bucketed response-time harness", RunFig7Suite},
    {"filter_curve", "Equation 4 similarity-filter probe curve",
     RunFilterCurveSuite},
    {"build_scaling", "parallel index build at 1/2/4/8 workers",
     RunBuildScalingSuite},
    {"query_throughput", "concurrent batch-query throughput at 1/2/4/8",
     RunQueryThroughputSuite},
    {"shard_scaling", "sharded scatter/gather at P=1/2/4 with cross-check",
     RunShardScalingSuite},
    {"churn", "concurrent Insert/Erase vs readers + online rebalance",
     RunChurnSuite},
    {"replay", "workload record -> save/load -> replay bit-stability",
     RunReplaySuite},
    {"durability", "WAL fsync policies + recovery time vs log length",
     RunDurabilitySuite},
    {"introspection", "HTTP self-scrape: /metrics conformance, health flip",
     RunIntrospectionSuite},
};

void PrintSuites(std::FILE* out) {
  std::fprintf(out, "available suites:\n");
  for (const Suite& suite : kSuites) {
    std::fprintf(out, "  %-18s %s\n", suite.name, suite.description);
  }
}

/// Every flag the runner reads.
struct FlagDoc {
  const char* name;
  const char* value;  // "" for a bare flag
  const char* help;
};

constexpr FlagDoc kFlags[] = {
    {"quick", "", "smaller workloads (CI smoke; noisier numbers)"},
    {"list", "", "print the suite table and exit"},
    {"only", "<suite>",
     "run one suite from the table (--list shows it); an unknown name "
     "exits 2 before any suite runs"},
    {"serve", "",
     "serve the live introspection HTTP endpoint (/metrics, /healthz, "
     "/statusz, /tracez, /varz) while the suites run"},
    {"serve_port", "<p>", "port for --serve (default 0 = ephemeral, printed)"},
    {"serve_linger", "<s>",
     "keep serving s seconds after the suites finish (CI smoke scrapes the "
     "live process)"},
    {"out", "<dir>", "directory for BENCH_<n>.json (default \".\", created)"},
    {"json", "<path>", "exact artifact path (overrides --out numbering)"},
    {"trace", "<path>", "also write a Chrome trace (chrome://tracing)"},
    {"label", "<text>", "free-form tag stored in params"},
    {"help", "", "print this usage and exit"},
};

void PrintUsage(std::FILE* out) {
  std::fprintf(out, "usage: ssr_benchrunner [flags]\n");
  for (const FlagDoc& flag : kFlags) {
    std::string spec = std::string("--") + flag.name;
    if (flag.value[0] != '\0') spec += std::string("=") + flag.value;
    std::fprintf(out, "  %-20s %s\n", spec.c_str(), flag.help);
  }
}

int Run(const bench::Flags& flags) {
  if (flags.GetBool("help")) {
    PrintUsage(stdout);
    return 0;
  }
  for (const std::string& name : flags.Names()) {
    const bool known =
        std::any_of(std::begin(kFlags), std::end(kFlags),
                    [&name](const FlagDoc& flag) { return name == flag.name; });
    if (!known) {
      // Checked before any suite runs, like an unknown --only suite: a
      // typo'd flag must not start the full-size suite.
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (flags.GetBool("list")) {
    PrintSuites(stdout);
    return 0;
  }
  const std::string only = flags.GetString("only", "");
  if (!only.empty()) {
    const bool known = std::any_of(
        std::begin(kSuites), std::end(kSuites),
        [&only](const Suite& suite) { return only == suite.name; });
    if (!known) {
      // Checked before any suite runs: a typo'd --only must not burn a
      // bench cycle or, worse, write a trajectory point with no suites.
      std::fprintf(stderr, "unknown --only suite: %s\n", only.c_str());
      PrintSuites(stderr);
      return 2;
    }
  }

  const bool quick = flags.GetBool("quick");
  RunReport report("ssr_benchrunner");
  obs::Tracer::Default().set_enabled(true);
  obs::Profiler::Default().Enable();

  report.AddParam("quick", quick);
  const std::string label = flags.GetString("label", "");
  if (!label.empty()) report.AddParam("label", label);
  report.AddParam("perf_source", std::string(obs::PerfSourceName(
                                     obs::Profiler::Default().source())));
  if (!only.empty()) report.AddParam("only", only);

  // --serve: the live introspection plane for the whole run. No SLO
  // sources are attached here (the introspection suite wires its own
  // server to a router); this endpoint exposes the process-wide registry,
  // traces, and health while the suites execute — and for --serve_linger
  // seconds afterwards, which is how the CI smoke job curls a live binary.
  std::unique_ptr<server::IntrospectionServer> serve;
  if (flags.GetBool("serve")) {
    server::IntrospectionServerOptions serve_options;
    serve_options.port =
        static_cast<std::uint16_t>(flags.GetInt("serve_port", 0));
    serve = std::make_unique<server::IntrospectionServer>(serve_options);
    const Status started = serve->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "--serve failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("introspection server on http://127.0.0.1:%u "
                "(/metrics /healthz /statusz /tracez /varz)\n",
                static_cast<unsigned>(serve->port()));
  }

  Stopwatch total;
  for (const Suite& suite : kSuites) {
    if (!only.empty() && only != suite.name) continue;
    if (suite.run(quick, &report) != 0) return 1;
  }
  report.AddScalar("total_wall_seconds", total.ElapsedSeconds());

  std::string path = flags.GetString("json", "");
  if (path.empty()) {
    const std::string dir = flags.GetString("out", ".");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create out dir %s: %s\n", dir.c_str(),
                   ec.message().c_str());
      return 1;
    }
    path = NextTrajectoryPath(dir);
  }
  const Status status = report.WriteTo(path);
  if (!status.ok()) {
    std::fprintf(stderr, "trajectory write failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote trajectory point %s (counter source: %s)\n",
              path.c_str(),
              std::string(obs::PerfSourceName(
                              obs::Profiler::Default().source()))
                  .c_str());

  const std::string trace_path = bench::ChromeTracePath(flags);
  if (!trace_path.empty()) {
    std::string error;
    if (!obs::WriteChromeTraceFile(trace_path, obs::Tracer::Default(),
                                   &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }

  const double linger = flags.GetDouble("serve_linger", 0.0);
  if (serve != nullptr && linger > 0.0) {
    std::printf("lingering %.1f s for external scrapes on port %u ...\n",
                linger, static_cast<unsigned>(serve->port()));
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(static_cast<long>(linger * 1000.0)));
  }
  return 0;
}

}  // namespace
}  // namespace ssr

int main(int argc, char** argv) {
  ssr::SetLogLevel(ssr::LogLevel::kWarning);
  ssr::bench::Flags flags(argc, argv);
  return ssr::Run(flags);
}
