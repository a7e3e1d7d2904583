// Google-benchmark microbenchmarks of the core primitives: exact Jaccard,
// min-hash signing, ECC encoding, on-the-fly sampled-bit key extraction,
// Hamming distance, SFI probe, composite-index candidate generation, and
// B+-tree operations. These quantify the CPU-side costs that the paper
// folds into "processor time" in Figure 7.
//
// Accepts --json=<path> like the other bench binaries; it is translated to
// google-benchmark's --benchmark_out/--benchmark_out_format=json pair.
// --trace=<path> writes a Chrome trace of the run (one span per benchmark
// suite invocation plus any spans the primitives themselves open).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/profile.h"
#include "obs/trace.h"

#include "core/index_layout.h"
#include "core/set_similarity_index.h"
#include "core/sfi.h"
#include "hamming/embedding.h"
#include "storage/set_store.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet RandomSet(Rng& rng, std::size_t size, std::uint64_t universe) {
  ElementSet s;
  s.reserve(size);
  for (std::size_t i = 0; i < size; ++i) s.push_back(rng.Uniform(universe));
  NormalizeSet(s);
  return s;
}

Embedding DefaultEmbedding(std::size_t k = 100) {
  EmbeddingParams p;
  p.minhash.num_hashes = k;
  p.minhash.value_bits = 8;
  auto e = Embedding::Create(p);
  return std::move(e).value();
}

void BM_Jaccard(benchmark::State& state) {
  Rng rng(1);
  const ElementSet a = RandomSet(rng, static_cast<std::size_t>(state.range(0)), 1 << 20);
  const ElementSet b = RandomSet(rng, static_cast<std::size_t>(state.range(0)), 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Jaccard(a, b));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Jaccard)->Arg(50)->Arg(250)->Arg(1000);

void BM_MinHashSign(benchmark::State& state) {
  Rng rng(2);
  Embedding e = DefaultEmbedding(static_cast<std::size_t>(state.range(1)));
  const ElementSet set = RandomSet(rng, static_cast<std::size_t>(state.range(0)), 1 << 20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Sign(set));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_MinHashSign)->Args({250, 50})->Args({250, 100})->Args({1000, 100});

// The seed-derivation hoist (util/hash.h): the pre-v2 inner signing loop
// evaluated HashU64(e, seed_i) = Fmix64(e ^ SplitMix64(seed_i)), paying a
// SplitMix64 per (element, permutation); HashFamily now derives
// SplitMix64(seed_i) once at construction. Identical output by algebra —
// this pair quantifies the win the hoist bought on the k x n hot loop.
void BM_SignLoopRederivedSeeds(benchmark::State& state) {
  Rng rng(13);
  const std::size_t k = 100;
  HashFamily family(k, 424242);
  const ElementSet set = RandomSet(rng, 250, 1 << 20);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t min = UINT64_MAX;
      for (ElementId e : set) {
        min = std::min(min, HashU64(e, family.seed(i)));
      }
      acc ^= min;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k * set.size()));
}
BENCHMARK(BM_SignLoopRederivedSeeds);

void BM_SignLoopHoistedSeeds(benchmark::State& state) {
  Rng rng(13);  // same stream: identical set and seeds
  const std::size_t k = 100;
  HashFamily family(k, 424242);
  const ElementSet set = RandomSet(rng, 250, 1 << 20);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < k; ++i) {
      std::uint64_t min = UINT64_MAX;
      for (ElementId e : set) {
        min = std::min(min, family.Hash(i, e));
      }
      acc ^= min;
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k * set.size()));
}
BENCHMARK(BM_SignLoopHoistedSeeds);

void BM_HadamardEncode(benchmark::State& state) {
  Embedding e = DefaultEmbedding();
  std::vector<std::uint64_t> scratch(e.code().codeword_words());
  std::uint16_t msg = 0;
  for (auto _ : state) {
    e.code().Encode(msg++, scratch.data());
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_HadamardEncode);

void BM_EmbedSignature(benchmark::State& state) {
  Rng rng(3);
  Embedding e = DefaultEmbedding();
  const Signature sig = e.Sign(RandomSet(rng, 250, 1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.EmbedSignature(sig));
  }
}
BENCHMARK(BM_EmbedSignature);

void BM_SampledKeyExtraction(benchmark::State& state) {
  Rng rng(4);
  Embedding e = DefaultEmbedding();
  BitSampler sampler(e, static_cast<std::size_t>(state.range(0)), rng);
  const Signature sig = e.Sign(RandomSet(rng, 250, 1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.ExtractKeyHash(sig));
  }
}
BENCHMARK(BM_SampledKeyExtraction)->Arg(4)->Arg(16)->Arg(64);

void BM_HammingDistance(benchmark::State& state) {
  Rng rng(5);
  Embedding e = DefaultEmbedding();
  const BitVector a = e.Embed(RandomSet(rng, 250, 1 << 20));
  const BitVector b = e.Embed(RandomSet(rng, 250, 1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(HammingDistance(a, b));
  }
}
BENCHMARK(BM_HammingDistance);

// std::popcount over embedded vectors. Built with -mpopcnt (SSR_ENABLE_POPCNT)
// this is one POPCNT per word; without it GCC's bit-twiddling fallback runs
// several times slower — a Release-build run of this bench is the check that
// the hardware instruction is actually being emitted.
void BM_BitVectorPopCount(benchmark::State& state) {
  Rng rng(12);
  Embedding e = DefaultEmbedding();
  const BitVector v = e.Embed(RandomSet(rng, 250, 1 << 20));
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.PopCount());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(v.size()));
}
BENCHMARK(BM_BitVectorPopCount);

void BM_SfiProbe(benchmark::State& state) {
  Rng rng(6);
  Embedding e = DefaultEmbedding();
  SfiParams params;
  params.s_star = 0.9;
  params.l = static_cast<std::size_t>(state.range(0));
  auto sfi = SimilarityFilterIndex::Create(e, params, 10000);
  for (int i = 0; i < 10000; ++i) {
    sfi->Insert(static_cast<SetId>(i), e.Sign(RandomSet(rng, 30, 1 << 16)));
  }
  const Signature query = e.Sign(RandomSet(rng, 30, 1 << 16));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sfi->SimVector(query));
  }
}
BENCHMARK(BM_SfiProbe)->Arg(5)->Arg(20)->Arg(50);

// The probe-union primitive with a reused scratch buffer (SimVectorInto):
// what the batch executor's per-worker query loop runs. Against BM_SfiProbe
// (same params, allocating SimVector) the delta is the per-probe allocation
// churn the scratch buffer eliminates.
void BM_SfiProbeUnionScratch(benchmark::State& state) {
  Rng rng(6);  // same stream as BM_SfiProbe: identical tables and query
  Embedding e = DefaultEmbedding();
  SfiParams params;
  params.s_star = 0.9;
  params.l = static_cast<std::size_t>(state.range(0));
  auto sfi = SimilarityFilterIndex::Create(e, params, 10000);
  for (int i = 0; i < 10000; ++i) {
    sfi->Insert(static_cast<SetId>(i), e.Sign(RandomSet(rng, 30, 1 << 16)));
  }
  const Signature query = e.Sign(RandomSet(rng, 30, 1 << 16));
  std::vector<SetId> scratch;
  for (auto _ : state) {
    sfi->SimVectorInto(query, /*complemented=*/false, nullptr, &scratch);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SfiProbeUnionScratch)->Arg(5)->Arg(20)->Arg(50);

// Cold tables: a 10,000-set, 16-table SFI probed by 4,096 distinct query
// signatures in turn. BM_SfiProbe* re-probe one query, so its bucket words
// and heap buckets stay cached; here most probes miss on them, which is
// what SimVectorInto's grouped prefetches overlap. One iteration is one
// filter probe.
void BM_SfiProbeColdTables(benchmark::State& state) {
  Rng rng(6);
  Embedding e = DefaultEmbedding();
  SfiParams params;
  params.s_star = 0.9;
  params.l = 16;
  auto sfi = SimilarityFilterIndex::Create(e, params, 10000);
  for (int i = 0; i < 10000; ++i) {
    sfi->Insert(static_cast<SetId>(i), e.Sign(RandomSet(rng, 30, 1 << 16)));
  }
  std::vector<Signature> queries;
  for (int i = 0; i < 4096; ++i) {
    queries.push_back(e.Sign(RandomSet(rng, 30, 1 << 16)));
  }
  std::vector<SetId> scratch;
  std::size_t next = 0;
  for (auto _ : state) {
    sfi->SimVectorInto(queries[next], /*complemented=*/false, nullptr,
                       &scratch);
    benchmark::DoNotOptimize(scratch.data());
    next = (next + 1) % queries.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SfiProbeColdTables);

// End-to-end candidate generation through the composite index (embed +
// probe + set algebra, no verification fetches). The observability
// acceptance bar: instrument updates must stay within noise of the seed's
// query path (<5%).
void BM_QueryCandidates(benchmark::State& state) {
  Rng rng(9);
  SetStoreOptions store_options;
  store_options.buffer_pool_pages = 64;
  SetStore store(store_options);
  std::vector<ElementSet> sets;
  for (int i = 0; i < 2000; ++i) {
    sets.push_back(RandomSet(rng, 40, 1 << 16));
    if (!store.Add(sets.back()).ok()) {
      state.SkipWithError("store add failed");
      return;
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
    state.SkipWithError("index build failed");
    return;
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto result =
        index->QueryCandidates(sets[next], 0.55, 0.95);
    benchmark::DoNotOptimize(result);
    next = (next + 1) % sets.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryCandidates);

// Snapshot persistence with the v2 checksummed framing. The robustness
// acceptance bar: with the fault injector disabled (the default here),
// per-section CRC32 and footer bookkeeping must cost <2% over the seed's
// unchecked serialization.
void BM_SnapshotSave(benchmark::State& state) {
  Rng rng(10);
  SetStore store;
  for (int i = 0; i < 2000; ++i) {
    if (!store.Add(RandomSet(rng, 40, 1 << 16)).ok()) {
      state.SkipWithError("store add failed");
      return;
    }
  }
  std::string bytes;
  for (auto _ : state) {
    std::ostringstream out;
    if (!store.SaveTo(out).ok()) {
      state.SkipWithError("save failed");
      return;
    }
    bytes = out.str();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotLoad(benchmark::State& state) {
  Rng rng(11);
  SetStore store;
  for (int i = 0; i < 2000; ++i) {
    if (!store.Add(RandomSet(rng, 40, 1 << 16)).ok()) {
      state.SkipWithError("store add failed");
      return;
    }
  }
  std::ostringstream out;
  if (!store.SaveTo(out).ok()) {
    state.SkipWithError("save failed");
    return;
  }
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    auto loaded = SetStore::Load(in);
    if (!loaded.ok()) {
      state.SkipWithError("load failed");
      return;
    }
    benchmark::DoNotOptimize(loaded->size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotLoad);

}  // namespace
}  // namespace ssr

// Custom main: rewrite --json=<path> into google-benchmark's output flags
// so every bench binary shares the same artifact interface, peel off
// --trace=<path> (google-benchmark would reject it), then defer to the
// standard benchmark driver.
int main(int argc, char** argv) {
  std::vector<std::string> args(argv, argv + argc);
  std::vector<std::string> rewritten;
  std::string trace_path;
  for (const std::string& arg : args) {
    if (arg.rfind("--json=", 0) == 0) {
      rewritten.push_back("--benchmark_out=" + arg.substr(strlen("--json=")));
      rewritten.push_back("--benchmark_out_format=json");
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(strlen("--trace="));
    } else {
      rewritten.push_back(arg);
    }
  }
  if (!trace_path.empty()) {
    ssr::obs::Tracer::Default().set_enabled(true);
    ssr::obs::Profiler::Default().Enable();
  }
  std::vector<char*> raw;
  raw.reserve(rewritten.size());
  for (std::string& arg : rewritten) raw.push_back(arg.data());
  int raw_argc = static_cast<int>(raw.size());
  benchmark::Initialize(&raw_argc, raw.data());
  if (benchmark::ReportUnrecognizedArguments(raw_argc, raw.data())) return 1;
  {
    ssr::obs::TraceSpan run("micro_primitives");
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (!trace_path.empty()) {
    std::string error;
    if (!ssr::obs::WriteChromeTraceFile(trace_path,
                                        ssr::obs::Tracer::Default(),
                                        &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote Chrome trace to %s (open in chrome://tracing)\n",
                trace_path.c_str());
  }
  return 0;
}
