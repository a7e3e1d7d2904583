#include <sstream>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(std::size_t n) {
  auto f = std::make_unique<Fixture>();
  Rng rng(5150);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(5000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
    EXPECT_TRUE(f->store.Add(s).ok());
  }
  IndexLayout layout;
  layout.delta = 0.3;
  layout.points = {{0.3, FilterKind::kDissimilarity, 6, 0},
                   {0.3, FilterKind::kSimilarity, 6, 0},
                   {0.7, FilterKind::kSimilarity, 6, 3}};
  IndexOptions options;
  options.embedding.minhash.num_hashes = 80;
  options.embedding.minhash.seed = 999;
  options.seed = 1234;
  auto index = SetSimilarityIndex::Build(f->store, layout, options);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return nullptr;
  f->index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return f;
}

// Queries both indexes over random ranges: same answers, same candidates,
// and the same size-window drops (sizes are not in the snapshot, so a
// loaded index must read them back from the store).
void ExpectAnswersIdentically(const Fixture& f,
                              const SetSimilarityIndex& loaded) {
  Rng rng(6);
  std::size_t size_pruned = 0;
  for (int t = 0; t < 25; ++t) {
    const ElementSet& q = f.sets[rng.Uniform(f.sets.size())];
    const double s1 = rng.NextDouble() * 0.8;
    const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
    auto a = f.index->Query(q, s1, s2);
    auto b = loaded.Query(q, s1, s2);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->sids, b->sids) << "range [" << s1 << ", " << s2 << "]";
    EXPECT_EQ(a->stats.candidates, b->stats.candidates);
    EXPECT_EQ(a->stats.size_pruned, b->stats.size_pruned);
    size_pruned += a->stats.size_pruned;
  }
  EXPECT_GT(size_pruned, 0u);
}

TEST(IndexPersistenceTest, LoadedIndexAnswersIdentically) {
  auto f = BuildFixture(150);
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->index->Erase(3).ok());  // persist a deletion too
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  auto loaded = SetSimilarityIndex::Load(f->store, buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_live_sets(), f->index->num_live_sets());
  EXPECT_EQ(loaded->num_filter_indices(), f->index->num_filter_indices());
  ExpectAnswersIdentically(*f, *loaded);
}

// The salvage twin: a damaged signatures section makes Load re-insert every
// live record, and the rebuilt index must answer like the saved one.
TEST(IndexPersistenceTest, SalvageLoadedIndexAnswersIdentically) {
  auto f = BuildFixture(150);
  ASSERT_NE(f, nullptr);
  ASSERT_TRUE(f->index->Erase(3).ok());
  ASSERT_TRUE(f->store.Delete(3).ok());  // the rebuild scans the store
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  std::string bytes = buffer.str();
  // The signatures section sits last, before the footer (WriteString
  // "SSRFOOT", section count, crc of crcs): flip a byte inside it.
  constexpr std::size_t kFooterBytes = 8 + 7 + 4 + 4;
  bytes[bytes.size() - kFooterBytes - 32] ^= 0x20;

  RecoveryReport report;
  SnapshotLoadOptions load_options;
  load_options.salvage = true;
  load_options.report = &report;
  std::stringstream in(bytes);
  auto loaded = SetSimilarityIndex::Load(f->store, in, load_options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(report.signatures_rebuilt, 149u);
  EXPECT_EQ(loaded->num_live_sets(), f->index->num_live_sets());
  ExpectAnswersIdentically(*f, *loaded);
}

TEST(IndexPersistenceTest, LoadedIndexSupportsDynamicOps) {
  auto f = BuildFixture(60);
  ASSERT_NE(f, nullptr);
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  auto loaded = SetSimilarityIndex::Load(f->store, buffer);
  ASSERT_TRUE(loaded.ok());
  // Insert a clone of set 0 into the loaded index; it must be findable.
  auto sid = f->store.Add(f->sets[0]);
  ASSERT_TRUE(sid.ok());
  ASSERT_TRUE(loaded->Insert(sid.value(), f->sets[0]).ok());
  auto result = loaded->Query(f->sets[0], 0.95, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::binary_search(result->sids.begin(), result->sids.end(),
                                 sid.value()));
  ASSERT_TRUE(loaded->Erase(sid.value()).ok());
}

TEST(IndexPersistenceTest, SignaturesSurviveExactly) {
  auto f = BuildFixture(40);
  ASSERT_NE(f, nullptr);
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  auto loaded = SetSimilarityIndex::Load(f->store, buffer);
  ASSERT_TRUE(loaded.ok());
  for (SetId sid = 0; sid < 40; ++sid) {
    EXPECT_EQ(loaded->signature(sid), f->index->signature(sid));
  }
}

TEST(IndexPersistenceTest, LayoutAndOptionsRoundTrip) {
  auto f = BuildFixture(30);
  ASSERT_NE(f, nullptr);
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  auto loaded = SetSimilarityIndex::Load(f->store, buffer);
  ASSERT_TRUE(loaded.ok());
  const IndexLayout& a = f->index->layout();
  const IndexLayout& b = loaded->layout();
  ASSERT_EQ(a.points.size(), b.points.size());
  EXPECT_DOUBLE_EQ(a.delta, b.delta);
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.points[i].similarity, b.points[i].similarity);
    EXPECT_EQ(a.points[i].kind, b.points[i].kind);
    EXPECT_EQ(a.points[i].tables, b.points[i].tables);
    EXPECT_EQ(a.points[i].r, b.points[i].r);
  }
  EXPECT_EQ(loaded->embedding().dimension(), f->index->embedding().dimension());
}

TEST(IndexPersistenceTest, RejectsGarbageAndTruncation) {
  auto f = BuildFixture(20);
  ASSERT_NE(f, nullptr);
  std::stringstream garbage;
  garbage << "not an index";
  EXPECT_FALSE(SetSimilarityIndex::Load(f->store, garbage).ok());
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() * 2 / 3));
  EXPECT_FALSE(SetSimilarityIndex::Load(f->store, truncated).ok());
}

}  // namespace
}  // namespace ssr
