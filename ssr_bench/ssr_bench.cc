// ssr_bench: the wall-clock benchmark of the set-similarity index. One
// invocation runs one workload over the Set1-shaped web-log collection and
// prints every metric as "name value unit":
//
//   ssr_bench --workload=<name> --seed=<n> [--seconds=<s>] [--smoke]
//             [--trace=<path>] [--json=<path>] [--scratch_dir=<dir>]
//
//   range_serial    optimizer layout, SetSimilarityIndex::Query, 1 client
//   range_batch     the same index through exec::BatchExecutor, 3 workers
//   neardup_routed  pinned layout, 4 shards, QueryRouter with 3 threads
//   churn_wal       pinned layout, 3 shards with WAL files, 1 writer and
//                   2 readers
//
// Every workload is a closed loop: each client waits for its answer before
// it sends the next request. The program receives only the generated sets
// and queries. The collection is fixed; the seed XORs into the seeds of the
// query stream, the near-duplicate probes and the churn writer.
//
// Without --trace the run measures the end-to-end metrics, with the
// program's own tracer and profiler left off. With --trace it measures the
// per-layer metrics instead: it calls each layer's public functions from
// outside (signing, candidate generation, record fetch, Jaccard
// verification, the shard, exec and WAL entry points), times every call
// inside a span of a private obs::Tracer, and writes those spans to the
// given path as a Chrome trace. A per-layer metric a workload does not
// exercise reads 0.
//
// Every answer is checked: sorted, duplicate-free, and every returned sid's
// exact Jaccard similarity lies in [σ1, σ2]. Any wrong answer or failed
// operation makes the exit code 3; a set-up error makes it 2.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baseline/exact_evaluator.h"
#include "bench_common.h"
#include "core/index_layout.h"
#include "core/set_similarity_index.h"
#include "exec/batch_executor.h"
#include "exec/epoch.h"
#include "obs/chrome_trace.h"
#include "obs/json_writer.h"
#include "obs/trace.h"
#include "optimizer/index_builder.h"
#include "optimizer/similarity_distribution.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "storage/set_store.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/set_ops.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"
#include "workload/weblog_generator.h"

namespace ssr {
namespace {

using Clock = std::chrono::steady_clock;
using exec::BatchQuery;

// The index's and ExactEvaluator's tolerance at the range ends.
constexpr double kEps = 1e-12;

// Program parameters, fixed across seeds: only the inputs vary with --seed.
constexpr std::size_t kMinHashes = 100;
constexpr unsigned kValueBits = 8;
constexpr std::size_t kTableBudget = 300;
constexpr std::size_t kDistributionPairs = 100000;
constexpr std::uint64_t kDistributionSeed = 0xd15b0fULL;
constexpr std::size_t kRangePoolPages = 128;  // the data is ~32x this
constexpr std::size_t kShardPoolPages = 4096;  // holds any one shard
constexpr std::size_t kBatchSize = 256;
constexpr std::size_t kBatchWorkers = 3;
constexpr std::size_t kRouterThreads = 3;
constexpr std::uint32_t kRoutedShards = 4;
constexpr std::uint32_t kChurnShards = 3;
constexpr int kChurnReaders = 2;
constexpr double kNearDupLow = 0.8;
constexpr double kNearDupReplace = 0.10;  // share of elements replaced

// Input-generator salts, XORed with --seed.
constexpr std::uint64_t kQuerySalt = 0x5e1ec7edULL;
constexpr std::uint64_t kProbeSalt = 0x9e0bed0cULL;
constexpr std::uint64_t kWriterSalt = 0xc4a5ed01ULL;

double MicrosSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// The measured phase: it starts on construction and lasts `seconds`.
class MeasuredPhase {
 public:
  explicit MeasuredPhase(double seconds)
      : start_rss_bytes_(CurrentRssBytes()),
        start_(Clock::now()),
        end_(start_ + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds))) {}

  bool Over() const { return Clock::now() >= end_; }
  double ElapsedUs() const { return MicrosSince(start_); }

  /// Resident memory added since the start. It grows with the operation
  /// count (the store's heap never shrinks, and every routed query
  /// registers metrics scopes), and so with speed.
  double RssGrowthBytes() const { return CurrentRssBytes() - start_rss_bytes_; }

 private:
  double start_rss_bytes_;
  Clock::time_point start_;
  Clock::time_point end_;
};

// ------------------------------------------------------------------ config

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string trace_path;  // non-empty: the traced per-layer run
  std::string json_path;
  std::filesystem::path scratch_dir;  // churn_wal's WAL files go under it

  bool traced() const { return !trace_path.empty(); }
  // Set1 at 0.05 is 10,000 sets over ~4,100 heap pages.
  double scale() const { return smoke ? 0.005 : 0.05; }
  // Set-up is timed several times and its median reported; the traced run
  // does not report it, so it sets up once.
  int setup_reps() const { return smoke || traced() ? 1 : 3; }
  std::size_t warmup() const { return smoke ? 10 : 100; }
  // Range queries per recall sample; near-duplicate probes get twice as
  // many (their answers are small, so each says less).
  std::size_t recall_samples() const { return smoke ? 64 : 512; }
};

// ----------------------------------------------------------------- metrics

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"query_p50_us", "us"},
    {"query_p99_us", "us"},    {"query_qps", "1/s"},
    {"recall", "ratio"},       {"peak_rss_mib", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"minhash.sign_us", "us"},
    {"core.probe_us", "us"},
    {"core.bucket_accesses_per_query", "count"},
    {"core.candidates_per_query", "count"},
    {"core.sids_scanned_per_query", "count"},
    {"core.results_per_candidate", "ratio"},
    {"core.verify_ns_per_candidate", "ns"},
    {"storage.fetch_ns_per_candidate", "ns"},
    {"storage.pool_hit_rate", "ratio"},
    {"storage.random_reads_per_query", "count"},
    {"exec.worker_util", "ratio"},
    {"exec.worker_cpu_imbalance", "ratio"},
    {"exec.batch_wall_ms", "ms"},
    {"shard.route_us", "us"},
    {"shard.slowest_shard_us", "us"},
    {"shard.scatter_gather_us", "us"},
    {"shard.shard_skew", "ratio"},
    {"shard.gather_us", "us"},
    {"shard.insert_us", "us"},
    {"shard.erase_us", "us"},
    {"storage.wal_append_us", "us"},
    {"storage.wal_bytes_per_mutation", "B"},
    {"exec.epoch_retired_per_mutation", "count"},
    {"exec.epoch_deferred_max", "count"},
    {"exec.epoch_reclaim_lag", "count"},
    {"mutation_p50_us", "us"},
    {"mutation_p999_us", "us"},
    {"mutation_ops_per_s", "1/s"},
    {"mem.rss_growth_bytes_per_op", "B"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// The metrics of one run: the end-to-end list, or in a traced run the
/// per-layer list. End-to-end metrics start unset (NaN, which fails the
/// run if a workload forgets one); per-layer metrics start at 0, the value
/// of a layer the workload does not exercise.
class Report {
 public:
  explicit Report(bool traced) {
    if (traced) {
      for (const MetricDef& def : kPerLayer) metrics_.push_back({def, 0.0});
    } else {
      for (const MetricDef& def : kEndToEnd) {
        metrics_.push_back({def, std::numeric_limits<double>::quiet_NaN()});
      }
    }
  }

  void Set(std::string_view name, double value) {
    for (Entry& entry : metrics_) {
      if (name == entry.def.name) {
        entry.value = value;
        return;
      }
    }
    // Metrics of the other mode are not reported in this one.
  }

  bool AllFinite() const {
    return std::all_of(metrics_.begin(), metrics_.end(),
                       [](const Entry& e) { return std::isfinite(e.value); });
  }

  void Print() const {
    for (const Entry& entry : metrics_) {
      std::printf("%s %.10g %s\n", entry.def.name, entry.value,
                  entry.def.unit);
    }
  }

  std::string Json(std::uint64_t attempted, std::uint64_t failed,
                   std::uint64_t wrong) const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("attempted").UInt(attempted);
    w.Key("failed").UInt(failed);
    w.Key("wrong").UInt(wrong);
    w.Key("metrics").BeginObject();
    for (const Entry& entry : metrics_) {
      w.Key(entry.def.name).BeginObject();
      w.Key("value").Double(entry.value);
      w.Key("unit").String(entry.def.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  struct Entry {
    MetricDef def;
    double value;
  };
  std::vector<Entry> metrics_;
};

/// One closed-loop client's measured operations: when each completed
/// (microseconds into the measured phase), how long it took, and how many
/// queries it carried (a batch carries many).
struct Samples {
  std::vector<double> at_us, us, ops;

  void Add(double at, double latency_us, double n = 1.0) {
    at_us.push_back(at);
    us.push_back(latency_us);
    ops.push_back(n);
  }
};

/// A closed loop's latency percentiles and served rate. A shared VM's speed
/// wanders by ~10% over seconds, so each figure is the median over
/// equal time slices of the measured phase: as many slices (at most 20) as
/// keep 10 samples beyond the percentile in each. The rate uses the p50's
/// slices; a slice's rate is, per client, its queries / Σ latency, summed
/// over clients. The answer checks between calls are not timed, so they do
/// not lower it.
struct LoopStats {
  double p50 = 0.0, p99 = 0.0, p999 = 0.0, rate = 0.0;
};

/// `served` carries the rate when it differs from the latency samples: a
/// batch's queries are served in one round trip.
LoopStats Summarize(const std::vector<Samples>& latency,
                    const std::vector<Samples>& served) {
  std::size_t total = 0;
  double phase_us = 0.0;
  for (const Samples& c : latency) {
    total += c.us.size();
    for (double at : c.at_us) phase_us = std::max(phase_us, at);
  }
  auto slices_for = [&](double q) {
    return std::clamp<std::size_t>(
        static_cast<std::size_t>(static_cast<double>(total) * (1.0 - q) / 10),
        1, 20);
  };
  auto slice_of = [&](double at, std::size_t slices) {
    return phase_us <= 0.0 ? 0
                           : std::min(slices - 1, static_cast<std::size_t>(
                                                      at / phase_us * slices));
  };
  auto percentile = [&](double q) {
    const std::size_t slices = slices_for(q);
    std::vector<std::vector<double>> lat(slices);
    for (const Samples& c : latency) {
      for (std::size_t i = 0; i < c.us.size(); ++i) {
        lat[slice_of(c.at_us[i], slices)].push_back(c.us[i]);
      }
    }
    std::vector<double> per_slice;
    for (std::vector<double>& v : lat) {
      if (!v.empty()) per_slice.push_back(Percentile(std::move(v), q));
    }
    return Median(per_slice);
  };
  const std::size_t slices = slices_for(0.5);
  std::vector<double> rate(slices, 0.0);
  for (const Samples& c : served) {
    std::vector<double> ops(slices, 0.0), busy_us(slices, 0.0);
    for (std::size_t i = 0; i < c.us.size(); ++i) {
      const std::size_t s = slice_of(c.at_us[i], slices);
      ops[s] += c.ops[i];
      busy_us[s] += c.us[i];
    }
    for (std::size_t s = 0; s < slices; ++s) {
      if (busy_us[s] > 0.0) rate[s] += ops[s] * 1e6 / busy_us[s];
    }
  }
  std::erase(rate, 0.0);  // slices no operation completed in
  return {percentile(0.5), percentile(0.99), percentile(0.999), Median(rate)};
}

LoopStats Summarize(const std::vector<Samples>& clients) {
  return Summarize(clients, clients);
}

void ReportQueryLatencies(const LoopStats& loop, Report* report) {
  report->Set("query_p50_us", loop.p50);
  report->Set("query_p99_us", loop.p99);
  report->Set("query_qps", loop.rate);
}

// ------------------------------------------------------------------ checks

/// Counts operations and judges every answer. Thread-safe.
class Tally {
 public:
  /// One query: failed when the call errored, wrong when the answer is not
  /// sorted and duplicate-free or holds a sid whose exact Jaccard with `q`
  /// lies outside [σ1, σ2].
  template <typename R>
  void Query(const Result<R>& result, const BatchQuery& q,
             const ExactEvaluator& exact) {
    Query(result.status(), result.ok() ? &result->sids : nullptr, q, exact);
  }

  void Query(const Status& status, const std::vector<SetId>* sids,
             const BatchQuery& q, const ExactEvaluator& exact) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) {
      Fail(status.ToString());
      return;
    }
    for (std::size_t i = 0; i < sids->size(); ++i) {
      const SetId sid = (*sids)[i];
      if (i > 0 && sid <= (*sids)[i - 1]) {
        Wrong("answer not sorted and duplicate-free");
        return;
      }
      if (sid >= exact.size()) {
        Wrong("answer holds an unknown sid");
        return;
      }
      const double sim = exact.SimilarityTo(sid, q.query);
      if (sim < q.sigma1 - kEps || sim > q.sigma2 + kEps) {
        Wrong("sid " + std::to_string(sid) + " has Jaccard " +
              std::to_string(sim) + " outside [" + std::to_string(q.sigma1) +
              ", " + std::to_string(q.sigma2) + "]");
        return;
      }
    }
  }

  /// One mutation.
  void Mutation(const Status& status) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!status.ok()) Fail(status.ToString());
  }

  void Wrong(const std::string& what) {
    if (wrong_.fetch_add(1, std::memory_order_relaxed) < kReported) {
      std::fprintf(stderr, "wrong answer: %s\n", what.c_str());
    }
  }

  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }
  std::uint64_t wrong() const { return wrong_.load(); }

 private:
  static constexpr std::uint64_t kReported = 5;

  void Fail(const std::string& what) {
    if (failed_.fetch_add(1, std::memory_order_relaxed) < kReported) {
      std::fprintf(stderr, "failed operation: %s\n", what.c_str());
    }
  }

  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> wrong_{0};
};

/// Resident memory a traced phase added, per operation.
void ReportRssGrowth(const MeasuredPhase& phase, const Tally& tally,
                     Report* report) {
  report->Set("mem.rss_growth_bytes_per_op",
              phase.RssGrowthBytes() /
                  std::max<double>(1.0, static_cast<double>(tally.attempted())));
}

// ------------------------------------------------------------------ inputs

/// The Set1-shaped collection at its default generator seed. It does not
/// vary with --seed: each collection leads the optimizer to its own layout,
/// and on a 4-vCPU VM ten seeds moved range_batch qps by 15% (interquartile
/// range over median) against 4% for ten runs of one seed — a spread that
/// would hide any regression under the bounds. The seed varies the
/// queries, probes and mutations instead.
SetCollection MakeCollection(const RunConfig& config) {
  return GenerateWeblogCollection(Set1Params(config.scale()));
}

/// Sids ordered by the size of their set. Size sets a query's cost (on the
/// range stream, on a 4-vCPU VM, a 1-2 element query takes ~2.9 ms and a
/// 560-820 element one ~18.7 ms), so the streams stratify on it; and Jaccard >= σ1 needs
/// min/max size >= σ1, so exact answers compare only that size window.
class SizeOrder {
 public:
  SizeOrder(const SetCollection& sets, std::vector<SetId> sids)
      : sets_(&sets), sids_(std::move(sids)) {
    std::stable_sort(sids_.begin(), sids_.end(), [&](SetId a, SetId b) {
      return sets[a].size() < sets[b].size();
    });
  }

  /// `n` sids drawn uniformly at random, stratified by size: each round
  /// visits kStrata equal-count size strata in a random order and draws one
  /// sid from each. Every sid stays equally likely, but a run's mix of
  /// cheap and costly queries no longer rests on the luck of the draw.
  std::vector<SetId> Draw(std::size_t n, Rng& rng) const {
    std::vector<std::size_t> strata(kStrata);
    std::vector<SetId> out;
    out.reserve(n);
    while (out.size() < n) {
      std::iota(strata.begin(), strata.end(), std::size_t{0});
      rng.Shuffle(strata);
      for (std::size_t s : strata) {
        if (out.size() == n) break;
        const std::size_t lo = s * sids_.size() / kStrata;
        const std::size_t hi = (s + 1) * sids_.size() / kStrata;
        out.push_back(sids_[lo + rng.Uniform(hi - lo)]);
      }
    }
    return out;
  }

  /// The exact answer to `q` over these sids, ascending, each judged by
  /// `exact`.
  std::vector<SetId> Truth(const ExactEvaluator& exact,
                           const BatchQuery& q) const {
    // A set whose size is outside [low·|q|, |q|/low] cannot reach σ1; `low`
    // sits a hair under σ1 (looser than kEps), so no true answer is skipped.
    const double low = q.sigma1 - 1e-9;
    const double size = static_cast<double>(q.query.size());
    auto too_small = [&](SetId s) {
      return low > 0.0 && static_cast<double>((*sets_)[s].size()) < low * size;
    };
    auto too_large = [&](SetId s) {
      return low > 0.0 && static_cast<double>((*sets_)[s].size()) > size / low;
    };
    std::vector<SetId> truth;
    for (auto it = std::partition_point(sids_.begin(), sids_.end(), too_small);
         it != sids_.end() && !too_large(*it); ++it) {
      const double sim = exact.SimilarityTo(*it, q.query);
      if (sim >= q.sigma1 - kEps && sim <= q.sigma2 + kEps) {
        truth.push_back(*it);
      }
    }
    std::sort(truth.begin(), truth.end());
    return truth;
  }

 private:
  static constexpr std::size_t kStrata = 64;

  const SetCollection* sets_;
  std::vector<SetId> sids_;
};

std::vector<SetId> AllSids(const SetCollection& sets) {
  std::vector<SetId> sids(sets.size());
  std::iota(sids.begin(), sids.end(), SetId{0});
  return sids;
}

/// The paper's §6 stream: query sets drawn from the collection (stratified
/// by size), both range bounds at random.
std::vector<BatchQuery> RangeStream(const SetCollection& sets,
                                    const SizeOrder& order,
                                    const RunConfig& config, std::size_t n) {
  QueryGeneratorParams params;
  params.seed ^= config.seed;
  QueryGenerator bounds(sets, params);
  Rng rng(config.seed ^ kQuerySalt);
  std::vector<BatchQuery> stream;
  stream.reserve(n);
  for (SetId sid : order.Draw(n, rng)) {
    const RangeQuery rq = bounds.Next();
    stream.push_back({sets[sid], rq.sigma1, rq.sigma2});
  }
  return stream;
}

/// `base` with ~10% of its elements replaced by random ones.
ElementSet NearDuplicate(const ElementSet& base, std::uint64_t universe,
                         Rng& rng) {
  ElementSet set = base;
  const auto replace =
      static_cast<std::size_t>(kNearDupReplace * static_cast<double>(set.size()));
  for (std::size_t i = 0; i < replace; ++i) {
    set[rng.Uniform(set.size())] = static_cast<ElementId>(rng.Uniform(universe));
  }
  NormalizeSet(set);
  return set;
}

/// Near-duplicate probes of random collection sets (stratified by size),
/// at [0.8, 1.0].
std::vector<BatchQuery> NearDupStream(const SetCollection& sets,
                                      const SizeOrder& order,
                                      const RunConfig& config, std::size_t n) {
  const std::uint64_t universe = Set1Params(config.scale()).num_urls;
  Rng rng(config.seed ^ kProbeSalt);
  std::vector<BatchQuery> stream;
  stream.reserve(n);
  for (SetId sid : order.Draw(n, rng)) {
    stream.push_back({NearDuplicate(sets[sid], universe, rng), kNearDupLow, 1.0});
  }
  return stream;
}

/// Recall judged on the first answers of the measured phase:
/// Σ|answer ∩ truth| / Σ|truth| against exact answers (1 when no truth set
/// has a member). The stream is seeded, so the sample is too.
class RecallSample {
 public:
  explicit RecallSample(std::size_t n) : n_(n) {}

  /// Keeps (q, answer) while the sample is not full.
  void Offer(const BatchQuery& q, const std::vector<SetId>& answer) {
    if (answers_.size() == n_) return;
    queries_.push_back(q);
    answers_.push_back(answer);
  }

  double Recall(const SizeOrder& order, const ExactEvaluator& exact) const {
    std::uint64_t hits = 0, total = 0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const std::vector<SetId> truth = order.Truth(exact, queries_[i]);
      std::vector<SetId> common;
      std::set_intersection(answers_[i].begin(), answers_[i].end(),
                            truth.begin(), truth.end(),
                            std::back_inserter(common));
      hits += common.size();
      total += truth.size();
    }
    return total == 0 ? 1.0 : static_cast<double>(hits) / total;
  }

 private:
  std::size_t n_;
  std::vector<BatchQuery> queries_;
  std::vector<std::vector<SetId>> answers_;
};

// ------------------------------------------------------------------- setup

IndexOptions MakeIndexOptions() {
  IndexOptions options;
  options.embedding.minhash.num_hashes = kMinHashes;
  options.embedding.minhash.value_bits = kValueBits;
  return options;
}

/// The layout the sharded workloads pin: {DFI 0.2 x8, SFI 0.5 x8,
/// SFI 0.8 x16}. The 0.8 SFI serves the near-duplicate range on its own.
IndexLayout PinnedLayout() {
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points.push_back({0.2, FilterKind::kDissimilarity, 8, 0});
  layout.points.push_back({0.5, FilterKind::kSimilarity, 8, 0});
  layout.points.push_back({0.8, FilterKind::kSimilarity, 16, 0});
  return layout;
}

/// Builds a workload's index config.setup_reps() times, each from scratch,
/// and keeps the last one. setup_s is the median build time. peak_rss_mib
/// is the peak resident memory after the inputs and the first build: later
/// builds reuse freed memory, and how much of it the allocator can reuse
/// varied between runs by 16 MiB. Each build is freed before the next
/// starts.
template <typename T, typename Build>
Result<T> TimedSetup(const RunConfig& config, Report* report, Build&& build) {
  std::vector<double> seconds;
  std::optional<T> kept;
  for (int i = 0; i < config.setup_reps(); ++i) {
    kept.reset();
    const Clock::time_point t0 = Clock::now();
    Result<T> built = build();
    seconds.push_back(MicrosSince(t0) / 1e6);
    if (!built.ok()) return built.status();
    kept.emplace(std::move(built).value());
    if (i == 0) report->Set("peak_rss_mib", PeakRssMib());
  }
  report->Set("setup_s", Median(seconds));
  return std::move(*kept);
}

struct RangeIndex {
  std::unique_ptr<SetStore> store;
  std::unique_ptr<SetSimilarityIndex> index;
};

/// Store adds, the §5 optimizer (sampled D_S, then Figure 4 at budget 300,
/// stepping the recall target down from 0.9 until feasible), and the build.
Result<RangeIndex> BuildRangeIndex(const SetCollection& sets) {
  RangeIndex out;
  SetStoreOptions store_options;
  store_options.buffer_pool_pages = kRangePoolPages;
  out.store = std::make_unique<SetStore>(store_options);
  for (const ElementSet& set : sets) {
    auto sid = out.store->Add(set);
    if (!sid.ok()) return sid.status();
  }
  Rng rng(kDistributionSeed);
  const SimilarityHistogram hist =
      ComputeSampledDistribution(sets, kDistributionPairs, 100, rng);
  const IndexOptions options = MakeIndexOptions();
  auto embedding = Embedding::Create(options.embedding);
  if (!embedding.ok()) return embedding.status();
  IndexBuilderOptions builder;
  builder.table_budget = kTableBudget;
  Result<BuiltLayout> layout = Status::Internal("no recall target tried");
  for (int step = 0; step <= 6; ++step) {  // 0.90, 0.85, ..., 0.60
    builder.recall_threshold = 0.9 - 0.05 * step;
    layout = ConstructIndexLayout(hist, *embedding, builder);
    if (layout.ok()) break;
  }
  if (!layout.ok()) return layout.status();
  auto index = SetSimilarityIndex::Build(*out.store, layout->layout, options);
  if (!index.ok()) return index.status();
  out.index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return out;
}

Result<std::unique_ptr<shard::ShardedSetSimilarityIndex>> BuildShardedIndex(
    const SetCollection& sets, std::uint32_t shards) {
  shard::ShardedIndexOptions options;
  options.num_shards = shards;
  options.index = MakeIndexOptions();
  options.store.buffer_pool_pages = kShardPoolPages;
  auto index =
      shard::ShardedSetSimilarityIndex::Build(sets, PinnedLayout(), options);
  if (!index.ok()) return index.status();
  return std::make_unique<shard::ShardedSetSimilarityIndex>(
      std::move(index).value());
}

// ----------------------------------------------------------------- tracing

/// One layer call timed from outside: a span in the benchmark's tracer,
/// tagged with the query it belongs to, around a steady-clock interval that
/// is added to `*total_s`. The span opens before and closes after the
/// interval, so span bookkeeping is not charged to the layer.
class LayerSpan {
 public:
  LayerSpan(obs::Tracer& tracer, std::string_view name, std::uint64_t qid,
            double* total_s)
      : span_(tracer, name), total_s_(total_s) {
    span_.Tag("qid", qid);
    t0_ = Clock::now();
  }
  ~LayerSpan() { *total_s_ += MicrosSince(t0_) / 1e6; }

  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  obs::TraceSpan span_;
  double* total_s_;
  Clock::time_point t0_;
};

/// Per-layer totals of a traced run. "Per query" means per plain call: a
/// sharded query's layer calls are summed over its shards.
struct LayerStats {
  std::uint64_t queries = 0;  // plain calls
  double plain_s = 0.0;       // those calls' latencies
  double sign_s = 0.0;        // Embedding::Sign
  double candidates_s = 0.0;  // QueryCandidates (signs again, then probes)
  double fetch_s = 0.0;       // record Gets of every candidate
  double verify_s = 0.0;      // Jaccard of every fetched candidate
  double shard_query_s = 0.0;  // each shard's own Query
  double gather_s = 0.0;       // merging the shard answers
  double traced_s = 0.0;       // root spans, which hold all of the above
  std::uint64_t candidates = 0;
  std::uint64_t sids_scanned = 0;
  std::uint64_t bucket_accesses = 0;
  std::uint64_t results = 0;
  std::uint64_t random_reads = 0;
  // Sharded queries.
  std::uint64_t routed = 0;
  double route_s = 0.0;
  double slowest_shard_s = 0.0;
  double skew_sum = 0.0;

  void Merge(const LayerStats& o) {
    queries += o.queries;
    plain_s += o.plain_s;
    sign_s += o.sign_s;
    candidates_s += o.candidates_s;
    fetch_s += o.fetch_s;
    verify_s += o.verify_s;
    shard_query_s += o.shard_query_s;
    gather_s += o.gather_s;
    traced_s += o.traced_s;
    candidates += o.candidates;
    sids_scanned += o.sids_scanned;
    bucket_accesses += o.bucket_accesses;
    results += o.results;
    random_reads += o.random_reads;
    routed += o.routed;
    route_s += o.route_s;
    slowest_shard_s += o.slowest_shard_s;
    skew_sum += o.skew_sum;
  }

  /// Records one plain call: its latency and the counts it reports.
  void AddPlain(double us, const QueryStats& stats) {
    queries += 1;
    plain_s += us / 1e6;
    results += stats.results;
    random_reads += stats.io.random_reads;
  }

  void ReportTo(Report* report) const {
    if (queries == 0) return;
    const double q = static_cast<double>(queries);
    const double c = std::max<double>(1.0, static_cast<double>(candidates));
    report->Set("minhash.sign_us", sign_s * 1e6 / q);
    report->Set("core.probe_us", (candidates_s - sign_s) * 1e6 / q);
    report->Set("core.bucket_accesses_per_query", bucket_accesses / q);
    report->Set("core.candidates_per_query", candidates / q);
    report->Set("core.sids_scanned_per_query", sids_scanned / q);
    report->Set("core.results_per_candidate", results / c);
    report->Set("core.verify_ns_per_candidate", verify_s * 1e9 / c);
    report->Set("storage.fetch_ns_per_candidate", fetch_s * 1e9 / c);
    report->Set("storage.random_reads_per_query", random_reads / q);
    // The layers (QueryCandidates holds the sign) against the plain call.
    report->Set("trace.unattributed_frac",
                1.0 - (candidates_s + fetch_s + verify_s + gather_s) / plain_s);
    // Time inside root spans but outside every timed layer call: span
    // bookkeeping and the benchmark's own glue, per unit of plain time.
    const double layers_s = sign_s + candidates_s + fetch_s + verify_s +
                            gather_s + shard_query_s;
    report->Set("trace.overhead_frac", (traced_s - layers_s) / plain_s);
    if (routed > 0) {
      const double r = static_cast<double>(routed);
      report->Set("shard.route_us", route_s * 1e6 / r);
      report->Set("shard.slowest_shard_us", slowest_shard_s * 1e6 / r);
      report->Set("shard.scatter_gather_us",
                  (route_s - slowest_shard_s) * 1e6 / r);
      report->Set("shard.shard_skew", skew_sum / r);
      report->Set("shard.gather_us", gather_s * 1e6 / r);
    }
  }
};

/// Hit rate of the buffer pools the plain calls go through, over a phase.
class PoolMeter {
 public:
  explicit PoolMeter(std::vector<const BufferPool*> pools)
      : pools_(std::move(pools)), before_(Totals()) {}

  double HitRate() const {
    const auto [hits, misses] = Totals();
    const double lookups = static_cast<double>((hits - before_.first) +
                                               (misses - before_.second));
    return lookups == 0.0 ? 0.0 : (hits - before_.first) / lookups;
  }

 private:
  std::pair<std::uint64_t, std::uint64_t> Totals() const {
    std::uint64_t hits = 0, misses = 0;
    for (const BufferPool* pool : pools_) {
      hits += pool->stats().hits;
      misses += pool->stats().misses;
    }
    return {hits, misses};
  }

  std::vector<const BufferPool*> pools_;
  std::pair<std::uint64_t, std::uint64_t> before_;
};

/// Runs one query through `index`'s layers, one public call at a time —
/// Embedding::Sign, QueryCandidates, a ReadView Get per candidate, Jaccard
/// per fetched set — each in its own span, and returns the verified answer
/// (local sids, with QueryCandidates' stats). Fetches go through the
/// benchmark's own `view`, so the plain calls' buffer pools see only plain
/// traffic.
Result<QueryResult> DecomposeQuery(obs::Tracer& tracer, std::uint64_t qid,
                                   const SetSimilarityIndex& index,
                                   SetStore::ReadView& view,
                                   const BatchQuery& q, LayerStats* st) {
  std::size_t signed_words = 0;
  {
    LayerSpan span(tracer, "minhash.sign", qid, &st->sign_s);
    signed_words = index.embedding().Sign(q.query).size();
  }
  Result<QueryResult> candidates = Status::Internal("not probed");
  {
    LayerSpan span(tracer, "core.query_candidates", qid, &st->candidates_s);
    candidates = index.QueryCandidates(q.query, q.sigma1, q.sigma2);
  }
  if (!candidates.ok()) return candidates.status();
  if (signed_words != kMinHashes) return Status::Internal("bad signature");
  std::vector<SetId> fetched_sids;
  std::vector<ElementSet> fetched;
  fetched_sids.reserve(candidates->sids.size());
  fetched.reserve(candidates->sids.size());
  {
    LayerSpan span(tracer, "storage.get", qid, &st->fetch_s);
    for (SetId sid : candidates->sids) {
      auto set = view.Get(sid);
      if (!set.ok()) {
        if (set.status().IsNotFound()) continue;  // erased meanwhile
        return set.status();
      }
      fetched_sids.push_back(sid);
      fetched.push_back(std::move(set).value());
    }
  }
  std::vector<SetId> answer;
  {
    LayerSpan span(tracer, "core.verify", qid, &st->verify_s);
    for (std::size_t i = 0; i < fetched.size(); ++i) {
      const double sim = Jaccard(fetched[i], q.query);
      if (sim >= q.sigma1 - kEps && sim <= q.sigma2 + kEps) {
        answer.push_back(fetched_sids[i]);
      }
    }
  }
  st->candidates += candidates->stats.candidates;
  st->sids_scanned += candidates->stats.sids_scanned;
  st->bucket_accesses += candidates->stats.bucket_accesses;
  QueryResult result = std::move(candidates).value();
  result.sids = std::move(answer);
  return result;
}

/// A traced query on an unsharded index: one root span over the layer
/// calls of DecomposeQuery.
Result<QueryResult> TracedQuery(obs::Tracer& tracer, std::uint64_t qid,
                                const SetSimilarityIndex& index,
                                SetStore::ReadView& view, const BatchQuery& q,
                                LayerStats* st) {
  LayerSpan root(tracer, "query", qid, &st->traced_s);
  return DecomposeQuery(tracer, qid, index, view, q, st);
}

/// A traced query on a sharded index: under one root span, each shard's
/// own Query (the slowest bounds a routed query), then each shard's layer
/// decomposition, then the shard answers gathered through the index's
/// public gather. Returns the gathered global sids. `route_us` is the
/// caller's timing of the routed call; `views[s]` reads shard s.
Result<std::vector<SetId>> TracedShardedQuery(
    obs::Tracer& tracer, std::uint64_t qid,
    const shard::ShardedSetSimilarityIndex& index,
    std::vector<std::unique_ptr<SetStore::ReadView>>& views,
    const BatchQuery& q, double route_us, LayerStats* st) {
  // Shard objects stay valid while pinned (they are epoch-retired).
  std::optional<exec::EpochGuard> guard;
  if (index.epoch_manager() != nullptr) guard.emplace(*index.epoch_manager());
  LayerSpan root(tracer, "query", qid, &st->traced_s);
  double slowest_s = 0.0, sum_s = 0.0;
  for (std::uint32_t s = 0; s < views.size(); ++s) {
    double shard_s = 0.0;
    {
      LayerSpan span(tracer, "shard.query", qid, &shard_s);
      SSR_RETURN_IF_ERROR(
          index.shard_index(s)->Query(q.query, q.sigma1, q.sigma2).status());
    }
    slowest_s = std::max(slowest_s, shard_s);
    sum_s += shard_s;
  }
  std::vector<QueryResult> answers;
  for (std::uint32_t s = 0; s < views.size(); ++s) {
    auto answer =
        DecomposeQuery(tracer, qid, *index.shard_index(s), *views[s], q, st);
    if (!answer.ok()) return answer.status();
    answers.push_back(std::move(answer).value());
  }
  shard::ShardedQueryResult merged;
  {
    LayerSpan span(tracer, "shard.gather", qid, &st->gather_s);
    merged.per_shard.resize(views.size());
    merged.shard_status.assign(views.size(), Status::OK());
    for (std::uint32_t s = 0; s < views.size(); ++s) {
      index.GatherShardAnswer(s, std::move(answers[s]), &merged);
    }
    index.FinishGather(&merged);
  }
  st->shard_query_s += sum_s;
  st->routed += 1;
  st->route_s += route_us / 1e6;
  st->slowest_shard_s += slowest_s;
  st->skew_sum += sum_s > 0.0 ? slowest_s * views.size() / sum_s : 1.0;
  return std::move(merged.sids);
}

std::vector<std::unique_ptr<SetStore::ReadView>> ShardViews(
    const shard::ShardedSetSimilarityIndex& index) {
  std::vector<std::unique_ptr<SetStore::ReadView>> views;
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    views.push_back(
        std::make_unique<SetStore::ReadView>(*index.shard_store(s)));
  }
  return views;
}

std::vector<const BufferPool*> ShardPools(
    const shard::ShardedSetSimilarityIndex& index) {
  std::vector<const BufferPool*> pools;
  for (std::uint32_t s = 0; s < index.num_shards(); ++s) {
    pools.push_back(&index.shard_store(s)->buffer_pool());
  }
  return pools;
}

/// Writes the tracer's spans as a Chrome trace.
Status WriteTrace(const RunConfig& config, const obs::Tracer& tracer) {
  std::string error;
  if (!obs::WriteChromeTraceFile(config.trace_path, tracer, &error)) {
    return Status::Internal(error);
  }
  return Status::OK();
}

constexpr std::size_t kTraceSpans = 1 << 15;

// --------------------------------------------------------------- workloads

/// range_serial: the paper's §6 workload from one client.
Status RunRangeSerial(const RunConfig& config, Report* report, Tally* tally) {
  const SetCollection sets = MakeCollection(config);
  const ExactEvaluator exact(sets);
  const SizeOrder order(sets, AllSids(sets));
  const std::vector<BatchQuery> stream = RangeStream(sets, order, config, 4096);
  auto built = TimedSetup<RangeIndex>(config, report,
                                      [&] { return BuildRangeIndex(sets); });
  if (!built.ok()) return built.status();
  SetSimilarityIndex& index = *built->index;

  for (std::size_t i = 0; i < config.warmup(); ++i) {
    (void)index.Query(stream[i].query, stream[i].sigma1, stream[i].sigma2);
  }
  const MeasuredPhase phase(config.seconds);
  if (!config.traced()) {
    Samples lat;
    RecallSample recall(config.recall_samples());
    for (std::size_t i = config.warmup(); !phase.Over(); ++i) {
      const BatchQuery& q = stream[i % stream.size()];
      const Clock::time_point t0 = Clock::now();
      auto answer = index.Query(q.query, q.sigma1, q.sigma2);
      lat.Add(phase.ElapsedUs(), MicrosSince(t0));
      tally->Query(answer, q, exact);
      if (answer.ok()) recall.Offer(q, answer->sids);
    }
    ReportQueryLatencies(Summarize({lat}), report);
    report->Set("recall", recall.Recall(order, exact));
    return Status::OK();
  }

  obs::Tracer tracer(kTraceSpans);
  tracer.set_enabled(true);
  LayerStats st;
  SetStore::ReadView view(*built->store);
  const PoolMeter pool({&built->store->buffer_pool()});
  for (std::size_t i = config.warmup(); !phase.Over(); ++i) {
    const BatchQuery& q = stream[i % stream.size()];
    const Clock::time_point t0 = Clock::now();
    auto plain = index.Query(q.query, q.sigma1, q.sigma2);
    const double plain_us = MicrosSince(t0);
    tally->Query(plain, q, exact);
    if (!plain.ok()) continue;
    st.AddPlain(plain_us, plain->stats);
    auto traced = TracedQuery(tracer, i, index, view, q, &st);
    if (!traced.ok() || traced->sids != plain->sids) {
      tally->Wrong("the layer calls disagree with Query");
    }
  }
  ReportRssGrowth(phase, *tally, report);
  st.ReportTo(report);
  report->Set("storage.pool_hit_rate", pool.HitRate());
  return WriteTrace(config, tracer);
}

/// range_batch: the range_serial index and stream through a 3-worker
/// BatchExecutor, batches of 256 from one client.
Status RunRangeBatch(const RunConfig& config, Report* report, Tally* tally) {
  const SetCollection sets = MakeCollection(config);
  const ExactEvaluator exact(sets);
  const SizeOrder order(sets, AllSids(sets));
  const std::vector<BatchQuery> stream = RangeStream(sets, order, config, 4096);
  auto built = TimedSetup<RangeIndex>(config, report,
                                      [&] { return BuildRangeIndex(sets); });
  if (!built.ok()) return built.status();
  const SetSimilarityIndex& index = *built->index;
  exec::BatchExecutorOptions options;
  options.num_threads = kBatchWorkers;
  exec::BatchExecutor executor(index, options);

  const std::size_t batch_size = config.smoke ? 32 : kBatchSize;
  auto next_batch = [&, cursor = std::size_t{0}]() mutable {
    std::vector<BatchQuery> batch;
    for (std::size_t i = 0; i < batch_size; ++i) {
      batch.push_back(stream[cursor++ % stream.size()]);
    }
    return batch;
  };
  auto judge = [&](const std::vector<BatchQuery>& batch,
                   const exec::BatchResult& result) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      tally->Query(result.statuses[i], &result.results[i].sids, batch[i],
                   exact);
    }
  };

  (void)executor.Run(next_batch());  // warm-up
  const MeasuredPhase phase(config.seconds);
  if (!config.traced()) {
    // One batch returns every answer at once, so outside the executor only
    // the batch round trip is visible (a few dozen per run: too few for a
    // p99). The per-query latency is the executor's own timing of each
    // query on its worker, QueryStats::cpu_seconds (a wall-clock span).
    Samples queries, batches;
    RecallSample recall(config.recall_samples());
    while (!phase.Over()) {
      const std::vector<BatchQuery> batch = next_batch();
      const Clock::time_point t0 = Clock::now();
      const exec::BatchResult result = executor.Run(batch);
      const double wall_us = MicrosSince(t0), at = phase.ElapsedUs();
      batches.Add(at, wall_us, static_cast<double>(batch.size()));
      judge(batch, result);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (!result.statuses[i].ok()) continue;
        queries.Add(at, result.results[i].stats.cpu_seconds * 1e6);
        recall.Offer(batch[i], result.results[i].sids);
      }
    }
    ReportQueryLatencies(Summarize({queries}, {batches}), report);
    report->Set("recall", recall.Recall(order, exact));
    return Status::OK();
  }

  // Traced: each batch is one root span; every 8th query of the batch is
  // then decomposed on this thread through worker-style ReadViews.
  obs::Tracer tracer(kTraceSpans);
  tracer.set_enabled(true);
  LayerStats st;
  SetStore::ReadView plain_view(*built->store);
  SetStore::ReadView decompose_view(*built->store);
  const PoolMeter pool({&plain_view.buffer_pool()});
  double batch_s = 0.0, cpu_s = 0.0, busiest_s = 0.0, util_sum = 0.0;
  std::size_t batches = 0;
  std::vector<SetId> scratch;
  for (std::uint64_t b = 0; !phase.Over(); ++b) {
    const std::vector<BatchQuery> batch = next_batch();
    exec::BatchResult result;
    {
      LayerSpan span(tracer, "exec.batch", b, &batch_s);
      result = executor.Run(batch);
    }
    judge(batch, result);
    double batch_cpu = 0.0, batch_busiest = 0.0;
    for (double worker : result.worker_cpu_seconds) {
      batch_cpu += worker;
      batch_busiest = std::max(batch_busiest, worker);
    }
    cpu_s += batch_cpu;
    busiest_s += batch_busiest;
    if (result.wall_seconds > 0.0) {
      util_sum += batch_cpu / (result.threads_used * result.wall_seconds);
    }
    batches += 1;
    for (std::size_t i = 0; i < batch.size(); i += 8) {
      const BatchQuery& q = batch[i];
      const Clock::time_point t0 = Clock::now();
      auto plain =
          index.QueryThrough(plain_view, q.query, q.sigma1, q.sigma2, &scratch);
      const double plain_us = MicrosSince(t0);
      if (!plain.ok()) continue;  // judged in the batch already
      st.AddPlain(plain_us, plain->stats);
      auto traced = TracedQuery(tracer, b * batch.size() + i, index,
                                decompose_view, q, &st);
      if (!traced.ok() || traced->sids != plain->sids) {
        tally->Wrong("the layer calls disagree with QueryThrough");
      }
    }
  }
  ReportRssGrowth(phase, *tally, report);
  st.ReportTo(report);
  report->Set("storage.pool_hit_rate", pool.HitRate());
  if (batches > 0) {
    const double workers = static_cast<double>(executor.num_threads());
    report->Set("exec.worker_util", util_sum / batches);
    report->Set("exec.worker_cpu_imbalance",
                cpu_s > 0.0 ? busiest_s * workers / cpu_s : 1.0);
    report->Set("exec.batch_wall_ms", batch_s * 1e3 / batches);
  }
  return WriteTrace(config, tracer);
}

/// neardup_routed: near-duplicate probes from one client through the
/// scatter/gather router over 4 shards.
Status RunNearDupRouted(const RunConfig& config, Report* report,
                        Tally* tally) {
  const SetCollection sets = MakeCollection(config);
  const ExactEvaluator exact(sets);
  const SizeOrder order(sets, AllSids(sets));
  const std::vector<BatchQuery> stream =
      NearDupStream(sets, order, config, 8192);
  struct Routed {
    std::unique_ptr<shard::ShardedSetSimilarityIndex> index;
    std::unique_ptr<shard::QueryRouter> router;
  };
  auto built = TimedSetup<Routed>(
      config, report, [&]() -> Result<Routed> {
        auto index = BuildShardedIndex(sets, kRoutedShards);
        if (!index.ok()) return index.status();
        shard::QueryRouterOptions options;
        options.num_threads = kRouterThreads;
        auto router = std::make_unique<shard::QueryRouter>(**index, options);
        return Routed{std::move(index).value(), std::move(router)};
      });
  if (!built.ok()) return built.status();
  const shard::ShardedSetSimilarityIndex& index = *built->index;
  shard::QueryRouter& router = *built->router;

  for (std::size_t i = 0; i < config.warmup(); ++i) {
    (void)router.Query(stream[i].query, stream[i].sigma1, stream[i].sigma2);
  }
  const MeasuredPhase phase(config.seconds);
  if (!config.traced()) {
    Samples lat;
    RecallSample recall(2 * config.recall_samples());
    for (std::size_t i = config.warmup(); !phase.Over(); ++i) {
      const BatchQuery& q = stream[i % stream.size()];
      const Clock::time_point t0 = Clock::now();
      auto answer = router.Query(q.query, q.sigma1, q.sigma2);
      lat.Add(phase.ElapsedUs(), MicrosSince(t0));
      tally->Query(answer, q, exact);
      if (!answer.ok()) continue;
      recall.Offer(q, answer->sids);
      if (i % 100 != 0) continue;
      // Every 100th routed answer must equal the serial scatter's.
      auto serial = index.Query(q.query, q.sigma1, q.sigma2);
      if (!serial.ok() || serial->sids != answer->sids) {
        tally->Wrong("QueryRouter and the serial sharded Query disagree");
      }
    }
    ReportQueryLatencies(Summarize({lat}), report);
    report->Set("recall", recall.Recall(order, exact));
    return Status::OK();
  }

  obs::Tracer tracer(kTraceSpans);
  tracer.set_enabled(true);
  LayerStats st;
  auto views = ShardViews(index);
  const PoolMeter pool(ShardPools(index));
  for (std::size_t i = config.warmup(); !phase.Over(); ++i) {
    const BatchQuery& q = stream[i % stream.size()];
    Clock::time_point t0 = Clock::now();
    auto routed = router.Query(q.query, q.sigma1, q.sigma2);
    const double route_us = MicrosSince(t0);
    tally->Query(routed, q, exact);
    if (!routed.ok()) continue;
    // The serial scatter is the reference the layer sum is held against.
    t0 = Clock::now();
    auto serial = index.Query(q.query, q.sigma1, q.sigma2);
    const double serial_us = MicrosSince(t0);
    if (!serial.ok() || serial->sids != routed->sids) {
      tally->Wrong("QueryRouter and the serial sharded Query disagree");
      continue;
    }
    st.AddPlain(serial_us, serial->stats);
    auto traced = TracedShardedQuery(tracer, i, index, views, q, route_us, &st);
    if (!traced.ok() || *traced != serial->sids) {
      tally->Wrong("the layer calls disagree with the sharded Query");
    }
  }
  ReportRssGrowth(phase, *tally, report);
  st.ReportTo(report);
  report->Set("storage.pool_hit_rate", pool.HitRate());
  return WriteTrace(config, tracer);
}

/// Removes a directory tree when it goes out of scope.
class ScopedDir {
 public:
  explicit ScopedDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// A sharded index in live-mutability mode with one WAL file per shard.
/// Members are destroyed index first, epoch manager last.
struct ChurnIndex {
  std::unique_ptr<exec::EpochManager> epochs;
  std::vector<std::unique_ptr<std::ofstream>> files;
  std::vector<std::unique_ptr<WalWriter>> wals;
  std::unique_ptr<shard::ShardedSetSimilarityIndex> index;
};

/// Opens a WAL file under `dir`; its Sync is a stream flush, not fdatasync.
Result<std::unique_ptr<std::ofstream>> OpenWalFile(
    const std::filesystem::path& path) {
  auto file = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::trunc);
  if (!*file) return Status::Unavailable("cannot open " + path.string());
  return file;
}

Result<ChurnIndex> BuildChurnIndex(const SetCollection& sets,
                                   const std::filesystem::path& wal_dir) {
  ChurnIndex out;
  out.epochs = std::make_unique<exec::EpochManager>();
  auto index = BuildShardedIndex(sets, kChurnShards);
  if (!index.ok()) return index.status();
  out.index = std::move(index).value();
  out.index->EnableConcurrentWrites(out.epochs.get());
  for (std::uint32_t s = 0; s < kChurnShards; ++s) {
    auto file =
        OpenWalFile(wal_dir / ("shard" + std::to_string(s) + ".wal"));
    if (!file.ok()) return file.status();
    out.files.push_back(std::move(file).value());
    // kEveryRecord: every Append syncs before it returns.
    out.wals.push_back(
        std::make_unique<WalWriter>(*out.files.back(), kWalFirstLsn));
    out.index->AttachShardWal(s, out.wals.back().get());
  }
  return out;
}

/// What the churn writer measures beyond latencies (traced run).
struct WriterStats {
  double insert_s = 0.0, erase_s = 0.0, wal_append_s = 0.0;
  std::uint64_t inserts = 0, erases = 0, mutations = 0;
  std::uint64_t deferred_max = 0, deferred_sum = 0, samples = 0;
};

/// churn_wal: one writer inserts near-duplicates of live sets and erases
/// random live sids, 50/50 around 10,000 live sets, while two readers run
/// near-duplicate probes. Mutations append to per-shard WAL files.
Status RunChurnWal(const RunConfig& config, Report* report, Tally* tally) {
  SetCollection sets = MakeCollection(config);
  const std::size_t initial = sets.size();
  const std::uint64_t universe = Set1Params(config.scale()).num_urls;
  const std::vector<BatchQuery> probes =
      NearDupStream(sets, SizeOrder(sets, AllSids(sets)), config, 8192);
  const ScopedDir wal_dir(config.scratch_dir /
                          ("ssr_bench_wal_" + std::to_string(getpid())));
  auto built = TimedSetup<ChurnIndex>(config, report, [&] {
    return BuildChurnIndex(sets, wal_dir.path());
  });
  if (!built.ok()) return built.status();
  shard::ShardedSetSimilarityIndex& index = *built->index;
  exec::EpochManager& epochs = *built->epochs;

  // Every set by global sid. Room for every insert is reserved up front so
  // the table never moves while readers look up the sids they are handed;
  // a set is written before its Insert publishes the sid, and erased sets
  // stay, so a reader's lookup never races the writer.
  const std::size_t max_inserts =
      static_cast<std::size_t>(40000.0 * config.seconds) + 1000;
  SetCollection table = std::move(sets);
  table.resize(initial + max_inserts);
  const ExactEvaluator exact(table);
  std::vector<SetId> live(initial);
  std::vector<std::size_t> live_pos(table.size());
  for (SetId sid = 0; sid < initial; ++sid) {
    live[sid] = sid;
    live_pos[sid] = sid;
  }

  const bool traced = config.traced();
  obs::Tracer tracer(kTraceSpans);
  tracer.set_enabled(traced);
  std::unique_ptr<std::ofstream> shadow_file;  // outlives shadow_wal
  std::optional<WalWriter> shadow_wal;
  if (traced) {
    auto file = OpenWalFile(wal_dir.path() / "shadow.wal");
    if (!file.ok()) return file.status();
    shadow_file = std::move(file).value();
    shadow_wal.emplace(*shadow_file, kWalFirstLsn);
  }

  Samples mutation_samples;
  WriterStats ws;
  std::uint64_t wal_bytes_before = 0;
  for (const auto& wal : built->wals) wal_bytes_before += wal->bytes_written();
  const std::uint64_t retired_before = epochs.retired_total();

  auto writer = [&](const MeasuredPhase& phase) {
    Rng rng(config.seed ^ kWriterSalt);
    SetId next = static_cast<SetId>(initial);
    const std::size_t target = initial, slack = initial / 20;
    for (std::uint64_t op = 0; !phase.Over(); ++op) {
      const bool insert =
          live.size() + slack <= target ||
          (live.size() < target + slack && rng.Bernoulli(0.5));
      if (insert && next == table.size()) {
        std::fprintf(stderr, "churn writer ran out of reserved sids\n");
        break;
      }
      SetId sid = kInvalidSetId;
      if (insert) {
        sid = next++;
        table[sid] = NearDuplicate(table[live[rng.Uniform(live.size())]],
                                   universe, rng);
      } else {
        sid = live[rng.Uniform(live.size())];
      }
      double call_s = 0.0, root_s = 0.0;
      Status status;
      {
        LayerSpan root(tracer, "mutation", op, &root_s);
        {
          LayerSpan span(tracer, insert ? "shard.insert" : "shard.erase", op,
                         &call_s);
          status = insert ? index.Insert(sid, table[sid]) : index.Erase(sid);
        }
        if (traced && status.ok()) {
          LayerSpan span(tracer, "storage.wal_append", op, &ws.wal_append_s);
          status = (insert ? shadow_wal->AppendInsert(sid, table[sid])
                           : shadow_wal->AppendErase(sid))
                       .status();
        }
      }
      tally->Mutation(status);
      if (status.ok() && insert) {
        live_pos[sid] = live.size();
        live.push_back(sid);
      } else if (status.ok()) {
        const std::size_t pos = live_pos[sid];
        live[pos] = live.back();
        live_pos[live[pos]] = pos;
        live.pop_back();
      }
      (insert ? ws.insert_s : ws.erase_s) += call_s;
      (insert ? ws.inserts : ws.erases) += 1;
      ws.mutations += 1;
      if (op >= config.warmup()) {
        mutation_samples.Add(phase.ElapsedUs(), call_s * 1e6);
      }
      if (traced && ws.mutations % 1000 == 0) {
        const std::uint64_t deferred = epochs.deferred_count();
        ws.deferred_max = std::max(ws.deferred_max, deferred);
        ws.deferred_sum += deferred;
        ws.samples += 1;
      }
    }
  };

  std::vector<Samples> reader_samples(kChurnReaders);
  std::vector<LayerStats> reader_stats(kChurnReaders);
  std::atomic<std::uint64_t> next_qid{0};
  auto reader = [&](int r, const MeasuredPhase& phase) {
    auto views = ShardViews(index);
    std::size_t done = 0;
    for (std::size_t i = r * probes.size() / kChurnReaders;
         !phase.Over(); ++i) {
      const BatchQuery& q = probes[i % probes.size()];
      const Clock::time_point t0 = Clock::now();
      auto answer = index.Query(q.query, q.sigma1, q.sigma2);
      const double us = MicrosSince(t0);
      tally->Query(answer, q, exact);
      if (!answer.ok()) continue;
      if (answer->partial || answer->rebalancing) {
        tally->Wrong("a churn answer is tagged partial");
      }
      if (++done > config.warmup()) {
        reader_samples[r].Add(phase.ElapsedUs(), us);
      }
      if (traced) {
        reader_stats[r].AddPlain(us, answer->stats);
        const std::uint64_t qid = next_qid.fetch_add(1);
        if (!TracedShardedQuery(tracer, qid, index, views, q, us,
                                &reader_stats[r])
                 .ok()) {
          tally->Wrong("a shard failed a layer call");
        }
      }
    }
  };

  const PoolMeter pool(ShardPools(index));
  const MeasuredPhase phase(config.seconds);
  std::vector<std::thread> threads;
  threads.emplace_back(writer, std::cref(phase));
  for (int r = 0; r < kChurnReaders; ++r) {
    threads.emplace_back(reader, r, std::cref(phase));
  }
  for (std::thread& t : threads) t.join();
  if (traced) ReportRssGrowth(phase, *tally, report);
  epochs.Quiesce();

  // Quiesced: a [0, 1] query returns exactly the surviving sids, untagged.
  std::vector<SetId> survivors = live;
  std::sort(survivors.begin(), survivors.end());
  auto all = index.Query(probes.front().query, 0.0, 1.0);
  if (!all.ok() || all->sids != survivors || all->partial ||
      all->rebalancing || !all->degraded_shards.empty()) {
    tally->Wrong("after churn, [0, 1] does not return exactly the live sids");
  }

  if (!traced) {
    ReportQueryLatencies(Summarize(reader_samples), report);
    // Recall once the churn has settled, over the surviving sets.
    RecallSample recall(2 * config.recall_samples());
    for (std::size_t i = 0; i < 2 * config.recall_samples(); ++i) {
      const BatchQuery& q = probes[i % probes.size()];
      auto answer = index.Query(q.query, q.sigma1, q.sigma2);
      if (!answer.ok()) return answer.status();
      recall.Offer(q, answer->sids);
    }
    report->Set("recall",
                recall.Recall(SizeOrder(table, survivors), exact));
    return Status::OK();
  }

  LayerStats st;
  for (const LayerStats& r : reader_stats) st.Merge(r);
  st.ReportTo(report);
  report->Set("storage.pool_hit_rate", pool.HitRate());
  std::uint64_t wal_bytes = 0;
  for (const auto& wal : built->wals) wal_bytes += wal->bytes_written();
  const double mutations = std::max<double>(1.0, ws.mutations);
  const double retired_per_mutation =
      (epochs.retired_total() - retired_before) / mutations;
  report->Set("shard.insert_us",
              ws.insert_s * 1e6 / std::max<double>(1.0, ws.inserts));
  report->Set("shard.erase_us",
              ws.erase_s * 1e6 / std::max<double>(1.0, ws.erases));
  report->Set("storage.wal_append_us", ws.wal_append_s * 1e6 / mutations);
  report->Set("storage.wal_bytes_per_mutation",
              (wal_bytes - wal_bytes_before) / mutations);
  report->Set("exec.epoch_retired_per_mutation", retired_per_mutation);
  report->Set("exec.epoch_deferred_max", static_cast<double>(ws.deferred_max));
  if (ws.samples > 0 && retired_per_mutation > 0.0) {
    report->Set("exec.epoch_reclaim_lag",
                static_cast<double>(ws.deferred_sum) / ws.samples /
                    retired_per_mutation);
  }
  const LoopStats mut = Summarize({mutation_samples});
  report->Set("mutation_p50_us", mut.p50);
  report->Set("mutation_p999_us", mut.p999);
  report->Set("mutation_ops_per_s", mut.rate);
  return WriteTrace(config, tracer);
}

// -------------------------------------------------------------------- main

struct Workload {
  const char* name;
  Status (*run)(const RunConfig&, Report*, Tally*);
};

constexpr Workload kWorkloads[] = {
    {"range_serial", RunRangeSerial},
    {"range_batch", RunRangeBatch},
    {"neardup_routed", RunNearDupRouted},
    {"churn_wal", RunChurnWal},
};

int Main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  RunConfig config;
  config.workload = flags.GetString("workload", "");
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 1));
  config.smoke = flags.GetBool("smoke");
  config.seconds = flags.GetDouble("seconds", config.smoke ? 0.3 : 20.0);
  config.trace_path = bench::ChromeTracePath(flags);
  config.json_path = flags.GetString("json", "");
  config.scratch_dir = flags.GetString("scratch_dir", ".");

  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr || !(config.seconds > 0.0)) {
    std::fprintf(stderr,
                 "usage: ssr_bench --workload=<range_serial|range_batch|"
                 "neardup_routed|churn_wal> --seed=<n> [--seconds=<s>] "
                 "[--smoke] [--trace=<path>] [--json=<path>] "
                 "[--scratch_dir=<dir>]\n");
    return 2;
  }

  Report report(config.traced());
  Tally tally;
  const Status status = workload->run(config, &report, &tally);
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }
  report.Print();
  std::printf("ops_attempted %llu count\nops_failed %llu count\n"
              "answers_wrong %llu count\n",
              static_cast<unsigned long long>(tally.attempted()),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.wrong()));
  if (!config.json_path.empty()) {
    std::ofstream out(config.json_path, std::ios::trunc);
    out << report.Json(tally.attempted(), tally.failed(), tally.wrong())
        << "\n";
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", config.json_path.c_str());
      return 2;
    }
  }
  if (!report.AllFinite()) {
    std::fprintf(stderr, "a metric was not measured\n");
    return 2;
  }
  return tally.failed() == 0 && tally.wrong() == 0 && tally.attempted() > 0
             ? 0
             : 3;
}

}  // namespace
}  // namespace ssr

int main(int argc, char** argv) { return ssr::Main(argc, argv); }
