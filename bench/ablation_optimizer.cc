// Ablations for the Section 5 design choices, each isolating one knob:
//   1. FI placement: equidepth (Lemma 4) vs uniform spacing.
//   2. Table allocation: recall-driven greedy (Fig. 5 / Lemma 6) vs the
//      literal error-greedy vs uniform.
//   3. Interval count: recall degrades (Lemma 3) while precision improves
//      (Lemma 5) as FIs are added under a fixed budget.
//   4. Index kinds: SFI+DFI (Section 4.2) vs SFI-only (the "first attempt"
//      of Section 4.1) — candidate volume for low-similarity queries.
//
// Flags: --scale=0.01 --budget=300 --queries=120

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "baseline/exact_evaluator.h"
#include "bench_common.h"
#include "core/set_similarity_index.h"
#include "eval/metrics.h"
#include "eval/table_printer.h"
#include "optimizer/equidepth.h"
#include "optimizer/error_model.h"
#include "optimizer/greedy_allocator.h"
#include "util/logging.h"
#include "workload/datasets.h"
#include "workload/query_generator.h"

namespace ssr {
namespace {

struct Env {
  SetCollection sets;
  SimilarityHistogram hist{100};
  Embedding embedding;
};

// Measured quality of a layout against the live workload.
struct Measured {
  double recall = 0.0;
  double precision = 0.0;
  double avg_candidates = 0.0;
  bool ok = false;
};

Measured MeasureLayout(Env& env, const IndexLayout& layout, int queries) {
  Measured m;
  SetStore store;
  for (const auto& s : env.sets) {
    if (!store.Add(s).ok()) return m;
  }
  IndexOptions options;
  options.embedding = env.embedding.params();
  auto index = SetSimilarityIndex::Build(store, layout, options);
  if (!index.ok()) return m;
  ExactEvaluator exact(env.sets);
  QueryGeneratorParams qparams;
  QueryGenerator generator(env.sets, qparams);
  int counted = 0;
  for (int i = 0; i < queries; ++i) {
    const RangeQuery q = generator.Next();
    const ElementSet& query_set = env.sets[q.query_sid];
    auto result = index->Query(query_set, q.sigma1, q.sigma2);
    if (!result.ok()) continue;
    const auto truth = exact.Query(query_set, q.sigma1, q.sigma2);
    m.recall += Recall(result->sids, truth);
    m.precision += CandidatePrecision(result->stats.results,
                                      result->stats.filter_candidates());
    m.avg_candidates +=
        static_cast<double>(result->stats.filter_candidates());
    ++counted;
  }
  if (counted == 0) return m;
  m.recall /= counted;
  m.precision /= counted;
  m.avg_candidates /= counted;
  m.ok = true;
  return m;
}

IndexLayout UniformPlacement(std::size_t num_fis, double delta) {
  IndexLayout layout;
  layout.delta = delta;
  std::size_t closest = 0;
  double best = 2.0;
  std::vector<double> points;
  for (std::size_t j = 1; j <= num_fis; ++j) {
    points.push_back(static_cast<double>(j) /
                     static_cast<double>(num_fis + 1));
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = std::fabs(points[i] - delta);
    if (d < best) {
      best = d;
      closest = i;
    }
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == closest) {
      layout.points.push_back(
          {points[i], FilterKind::kDissimilarity, 1, 0});
      layout.points.push_back({points[i], FilterKind::kSimilarity, 1, 0});
    } else {
      const FilterKind kind = points[i] < delta
                                  ? FilterKind::kDissimilarity
                                  : FilterKind::kSimilarity;
      layout.points.push_back({points[i], kind, 1, 0});
    }
  }
  return layout;
}

int Run(const bench::Flags& flags) {
  Env env{{}, SimilarityHistogram(100), [] {
            EmbeddingParams p;
            p.minhash.num_hashes = 100;
            p.minhash.value_bits = 8;
            auto e = Embedding::Create(p);
            return std::move(e).value();
          }()};
  env.sets = MakeDataset(flags.GetString("dataset", "set1"),
                         flags.GetDouble("scale", 0.01));
  Rng rng(0xab1a7e);
  env.hist = ComputeSampledDistribution(env.sets, 60000, 100, rng);
  const std::size_t budget =
      static_cast<std::size_t>(flags.GetInt("budget", 300));
  const int queries = static_cast<int>(flags.GetInt("queries", 120));
  const std::size_t num_fis = 4;

  RunReport report("ablation_optimizer");
  bench::EnableObservability(flags);
  report.AddParam("dataset", flags.GetString("dataset", "set1"));
  report.AddParam("scale", flags.GetDouble("scale", 0.01));
  report.AddParam("budget", static_cast<std::uint64_t>(budget));
  report.AddParam("queries", static_cast<std::uint64_t>(queries));

  // --- Ablation 1: placement. ---
  bench::PrintHeader("Ablation 1 (Lemma 4): equidepth vs uniform placement, "
                     + std::to_string(num_fis) + " FIs, budget " +
                     std::to_string(budget));
  {
    TablePrinter table({"placement", "measured recall", "measured precision",
                        "avg candidates"});
    IndexLayout equidepth = PlaceFilterIndices(env.hist, num_fis);
    auto r1 = GreedyAllocateTables(&equidepth, budget, env.hist,
                                   env.embedding);
    IndexLayout uniform = UniformPlacement(num_fis, equidepth.delta);
    auto r2 = GreedyAllocateTables(&uniform, budget, env.hist,
                                   env.embedding);
    if (r1.ok() && r2.ok()) {
      const Measured me = MeasureLayout(env, equidepth, queries);
      const Measured mu = MeasureLayout(env, uniform, queries);
      table.AddRow({"equidepth", TablePrinter::Pct(me.recall),
                    TablePrinter::Pct(me.precision),
                    TablePrinter::Num(me.avg_candidates, 1)});
      table.AddRow({"uniform", TablePrinter::Pct(mu.recall),
                    TablePrinter::Pct(mu.precision),
                    TablePrinter::Num(mu.avg_candidates, 1)});
    }
    std::ostringstream out;
    table.Print(out);
    std::printf("%s", out.str().c_str());
    report.AddTable("ablation1 placement", table);
  }

  // --- Ablation 2: allocation. ---
  bench::PrintHeader(
      "Ablation 2 (Lemma 6): allocation policy under equidepth placement");
  {
    TablePrinter table({"allocation", "predicted avg recall",
                        "measured recall", "measured precision"});
    struct Policy {
      const char* name;
      int kind;  // 0 greedy-recall, 1 greedy-error, 2 uniform
    };
    for (const Policy policy : {Policy{"greedy (recall-driven)", 0},
                                Policy{"greedy (error, Fig.5)", 1},
                                Policy{"uniform", 2}}) {
      IndexLayout layout = PlaceFilterIndices(env.hist, num_fis);
      bool ok = false;
      switch (policy.kind) {
        case 0:
          ok = GreedyAllocateTables(&layout, budget, env.hist,
                                    env.embedding)
                   .ok();
          break;
        case 1:
          ok = GreedyAllocateTablesByError(&layout, budget, env.hist,
                                           env.embedding.distance_ratio())
                   .ok();
          break;
        default:
          ok = UniformAllocateTables(&layout, budget, env.hist,
                                     env.embedding.distance_ratio())
                   .ok();
      }
      if (!ok) continue;
      LayoutErrorModel model(layout, env.embedding, env.hist);
      const Measured m = MeasureLayout(env, layout, queries);
      table.AddRow({policy.name,
                    TablePrinter::Pct(model.WorkloadAverageRecall()),
                    TablePrinter::Pct(m.recall),
                    TablePrinter::Pct(m.precision)});
    }
    std::ostringstream out;
    table.Print(out);
    std::printf("%s", out.str().c_str());
    report.AddTable("ablation2 allocation", table);
  }

  // --- Ablation 3: interval count (Lemmas 3 and 5). ---
  bench::PrintHeader(
      "Ablation 3 (Lemmas 3/5): FIs vs recall and precision, fixed budget");
  {
    TablePrinter table({"FIs", "predicted recall", "measured recall",
                        "measured precision", "avg candidates"});
    for (std::size_t fis : {1u, 2u, 4u, 6u, 8u}) {
      IndexLayout layout = PlaceFilterIndices(env.hist, fis);
      if (!GreedyAllocateTables(&layout, budget, env.hist, env.embedding)
               .ok()) {
        continue;
      }
      LayoutErrorModel model(layout, env.embedding, env.hist);
      const Measured m = MeasureLayout(env, layout, queries);
      table.AddRow({TablePrinter::Count(fis),
                    TablePrinter::Pct(model.WorkloadAverageRecall()),
                    TablePrinter::Pct(m.recall),
                    TablePrinter::Pct(m.precision),
                    TablePrinter::Num(m.avg_candidates, 1)});
    }
    std::ostringstream out;
    table.Print(out);
    std::printf("%s", out.str().c_str());
    report.AddTable("ablation3 interval count", table);
  }

  // --- Ablation 4: DFIs vs SFI-only for low-similarity queries. ---
  bench::PrintHeader(
      "Ablation 4 (Section 4.2): SFI+DFI vs SFI-only, low-similarity "
      "queries [0.05, 0.3]");
  {
    IndexLayout mixed = PlaceFilterIndices(env.hist, num_fis);
    IndexLayout sfi_only = mixed;
    sfi_only.delta = 0.0;
    for (auto& p : sfi_only.points) p.kind = FilterKind::kSimilarity;
    // Collapse duplicate dual points left over from the mixed layout.
    for (std::size_t i = 1; i < sfi_only.points.size();) {
      if (sfi_only.points[i].similarity ==
          sfi_only.points[i - 1].similarity) {
        sfi_only.points.erase(sfi_only.points.begin() +
                              static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    auto ra = GreedyAllocateTables(&mixed, budget, env.hist, env.embedding);
    auto rb = GreedyAllocateTables(&sfi_only, budget, env.hist,
                                   env.embedding);
    TablePrinter table({"layout", "avg candidates", "measured recall",
                        "measured precision"});
    for (auto& [name, layout, ok] :
         std::vector<std::tuple<const char*, IndexLayout*, bool>>{
             {"SFI+DFI", &mixed, ra.ok()},
             {"SFI-only", &sfi_only, rb.ok()}}) {
      if (!ok) continue;
      SetStore store;
      bool add_failed = false;
      for (const auto& s : env.sets) {
        if (!store.Add(s).ok()) add_failed = true;
      }
      if (add_failed) continue;
      IndexOptions options;
      options.embedding = env.embedding.params();
      auto index = SetSimilarityIndex::Build(store, *layout, options);
      if (!index.ok()) continue;
      ExactEvaluator exact(env.sets);
      Rng qrng(0xab1a7e + 7);
      double recall = 0.0, precision = 0.0, candidates = 0.0;
      int counted = 0;
      for (int i = 0; i < queries; ++i) {
        const SetId sid = static_cast<SetId>(qrng.Uniform(env.sets.size()));
        auto result = index->Query(env.sets[sid], 0.05, 0.3);
        if (!result.ok()) continue;
        const auto truth = exact.Query(env.sets[sid], 0.05, 0.3);
        recall += Recall(result->sids, truth);
        precision += CandidatePrecision(result->stats.results,
                                        result->stats.filter_candidates());
        candidates += static_cast<double>(result->stats.filter_candidates());
        ++counted;
      }
      if (counted == 0) continue;
      table.AddRow({name, TablePrinter::Num(candidates / counted, 1),
                    TablePrinter::Pct(recall / counted),
                    TablePrinter::Pct(precision / counted)});
    }
    std::ostringstream out;
    table.Print(out);
    std::printf("%s", out.str().c_str());
    report.AddTable("ablation4 dfi vs sfi-only", table);
  }
  return bench::WriteReportIfRequested(flags, report);
}

}  // namespace
}  // namespace ssr

int main(int argc, char** argv) {
  ssr::SetLogLevel(ssr::LogLevel::kWarning);
  ssr::bench::Flags flags(argc, argv);
  return ssr::Run(flags);
}
