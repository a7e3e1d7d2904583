// Signature engine v2 persistence matrix: the minhash family byte travels
// in the index snapshot's "options" section (v3), the WAL checkpoint, and
// every sharded shard section, and the loader must never probe a store
// under the wrong family. The matrix pins the full taxonomy with surgical
// byte edits on real snapshots:
//
//   wrong family, clean CRC   -> NotSupported (a newer engine's snapshot)
//   damaged bytes             -> Corruption (the CRC vouches for nothing)
//   truncation                -> DataLoss/Corruption, never a wrong answer
//   version byte damaged      -> Corruption (the trailing-bytes guard: a
//                                v3 snapshot demoted to "v2" must not
//                                silently drop the family byte)
//   genuine v2 snapshot       -> loads as the classic family
//
// The snapshot surgeon below re-derives section CRCs and the footer
// checksum after an edit, so each case isolates exactly one failure.

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "exec/epoch.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/crc32.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

// ---------------------------------------------------------------------------
// Snapshot surgeon: little-endian field access + section mapping over the
// framing of storage/snapshot.h (magic string, u32 version, then per
// section: name string, u64 size, u32 crc, payload; footer "SSRFOOT"
// string, u32 count, u32 crc-of-crcs).

std::uint64_t GetU64(const std::string& s, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(s[off + static_cast<std::size_t>(i)]);
  }
  return v;
}

std::uint32_t GetU32(const std::string& s, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(s[off + static_cast<std::size_t>(i)]);
  }
  return v;
}

void PutU32(std::string* s, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    (*s)[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

void PutU64(std::string* s, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*s)[off + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

struct SectionRef {
  std::string name;
  std::size_t size_off = 0;
  std::size_t crc_off = 0;
  std::size_t payload_off = 0;
  std::uint64_t size = 0;
};

struct SnapshotMap {
  std::size_t version_off = 0;
  std::vector<SectionRef> sections;
  std::size_t footer_crc_off = 0;
};

SnapshotMap MapSnapshot(const std::string& bytes) {
  SnapshotMap map;
  std::size_t off = 0;
  const std::uint64_t magic_len = GetU64(bytes, off);
  off += 8 + static_cast<std::size_t>(magic_len);
  map.version_off = off;
  off += 4;
  for (;;) {
    const std::uint64_t name_len = GetU64(bytes, off);
    const std::string name =
        bytes.substr(off + 8, static_cast<std::size_t>(name_len));
    off += 8 + static_cast<std::size_t>(name_len);
    if (name == "SSRFOOT") {
      map.footer_crc_off = off + 4;  // skip the u32 section count
      break;
    }
    SectionRef ref;
    ref.name = name;
    ref.size_off = off;
    ref.size = GetU64(bytes, off);
    off += 8;
    ref.crc_off = off;
    off += 4;
    ref.payload_off = off;
    off += static_cast<std::size_t>(ref.size);
    map.sections.push_back(std::move(ref));
  }
  return map;
}

void FixFooter(std::string* bytes) {
  const SnapshotMap map = MapSnapshot(*bytes);
  std::uint32_t crc = 0;
  for (const SectionRef& ref : map.sections) {
    const std::uint32_t c = GetU32(*bytes, ref.crc_off);
    const std::uint8_t le[4] = {
        static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(c >> 8),
        static_cast<std::uint8_t>(c >> 16),
        static_cast<std::uint8_t>(c >> 24)};
    crc = Crc32Update(crc, le, 4);
  }
  PutU32(bytes, map.footer_crc_off, crc);
}

// Applies `edit` to the named section's payload (the size may change),
// then re-derives the section's length, CRC, and the footer checksum, so
// the only inconsistency left is whatever the edit itself introduced.
void RewriteSection(std::string* bytes, const std::string& name,
                    const std::function<void(std::string*)>& edit) {
  const SnapshotMap map = MapSnapshot(*bytes);
  for (const SectionRef& ref : map.sections) {
    if (ref.name != name) continue;
    std::string payload =
        bytes->substr(ref.payload_off, static_cast<std::size_t>(ref.size));
    edit(&payload);
    bytes->replace(ref.payload_off, static_cast<std::size_t>(ref.size),
                   payload);
    PutU64(bytes, ref.size_off, payload.size());
    PutU32(bytes, ref.crc_off, Crc32(payload));
    break;
  }
  FixFooter(bytes);
}

// ---------------------------------------------------------------------------

struct Fixture {
  SetCollection sets;
  SetStore store;
  std::unique_ptr<SetSimilarityIndex> index;
};

std::unique_ptr<Fixture> BuildFixture(
    std::size_t n, MinHashFamilyKind family = MinHashFamilyKind::kClassic) {
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
  options.embedding.minhash.num_hashes = 40;
  options.embedding.minhash.seed = 999;
  options.embedding.minhash.family = family;
  options.seed = 1234;
  auto index = SetSimilarityIndex::Build(f->store, layout, options);
  EXPECT_TRUE(index.ok());
  if (!index.ok()) return nullptr;
  f->index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
  return f;
}

std::string Serialized(const SetSimilarityIndex& index) {
  std::stringstream buffer;
  EXPECT_TRUE(index.SaveTo(buffer).ok());
  return buffer.str();
}

TEST(FamilyPersistenceTest, RoundTripPreservesEveryFamily) {
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    auto f = BuildFixture(40, family);
    ASSERT_NE(f, nullptr);
    std::stringstream buffer(Serialized(*f->index));
    auto loaded = SetSimilarityIndex::Load(f->store, buffer);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->embedding().params().minhash.family, family);
    EXPECT_EQ(loaded->ContentDigest(), f->index->ContentDigest())
        << MinHashFamilyName(family);
    Rng rng(7);
    for (int t = 0; t < 10; ++t) {
      const ElementSet& q = f->sets[rng.Uniform(f->sets.size())];
      const double s1 = rng.NextDouble() * 0.8;
      const double s2 = s1 + rng.NextDouble() * (1.0 - s1);
      auto a = f->index->Query(q, s1, s2);
      auto b = loaded->Query(q, s1, s2);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(a->sids, b->sids) << MinHashFamilyName(family);
    }
  }
}

TEST(FamilyPersistenceTest, WrongFamilyByteIsNotSupported) {
  auto f = BuildFixture(20);
  ASSERT_NE(f, nullptr);
  std::string bytes = Serialized(*f->index);
  // The family byte is the last byte of the options payload. Write an
  // out-of-range value and re-derive every checksum: the section is now
  // CRC-clean, so the only possible verdict is "newer engine", not damage.
  RewriteSection(&bytes, "options",
                 [](std::string* payload) { payload->back() = 7; });
  std::stringstream in(bytes);
  auto loaded = SetSimilarityIndex::Load(f->store, in);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported())
      << loaded.status().ToString();
}

TEST(FamilyPersistenceTest, DamagedOptionsBytesAreCorruption) {
  auto f = BuildFixture(20, MinHashFamilyKind::kCMinHash);
  ASSERT_NE(f, nullptr);
  const std::string pristine = Serialized(*f->index);
  const SnapshotMap map = MapSnapshot(pristine);
  ASSERT_EQ(map.sections[0].name, "options");
  const SectionRef& opts = map.sections[0];
  // Flip one bit in every byte of the options payload, one at a time,
  // without fixing the CRC: each flip (family byte included) must surface
  // as Corruption — never load, never NotSupported.
  for (std::uint64_t i = 0; i < opts.size; ++i) {
    std::string bytes = pristine;
    bytes[opts.payload_off + static_cast<std::size_t>(i)] ^= 0x40;
    std::stringstream in(bytes);
    auto loaded = SetSimilarityIndex::Load(f->store, in);
    ASSERT_FALSE(loaded.ok()) << "payload byte " << i;
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "payload byte " << i << ": " << loaded.status().ToString();
  }
}

TEST(FamilyPersistenceTest, DamagedVersionFieldIsNeverSilent) {
  auto f = BuildFixture(20, MinHashFamilyKind::kCMinHash);
  ASSERT_NE(f, nullptr);
  const std::string pristine = Serialized(*f->index);
  const SnapshotMap map = MapSnapshot(pristine);

  // v3 -> "v2": the options payload now carries one byte more than the v2
  // field list. Without the trailing-bytes guard this would load as the
  // classic family and silently probe cminhash signatures under it.
  std::string demoted = pristine;
  PutU32(&demoted, map.version_off, 2);
  std::stringstream demoted_in(demoted);
  auto as_v2 = SetSimilarityIndex::Load(f->store, demoted_in);
  ASSERT_FALSE(as_v2.ok());
  EXPECT_TRUE(as_v2.status().IsCorruption()) << as_v2.status().ToString();

  // v3 -> "v4": an unknown future version is NotSupported.
  std::string promoted = pristine;
  PutU32(&promoted, map.version_off, 4);
  std::stringstream promoted_in(promoted);
  auto as_v4 = SetSimilarityIndex::Load(f->store, promoted_in);
  ASSERT_FALSE(as_v4.ok());
  EXPECT_TRUE(as_v4.status().IsNotSupported()) << as_v4.status().ToString();
}

TEST(FamilyPersistenceTest, GenuineV2SnapshotLoadsAsClassic) {
  auto f = BuildFixture(30);  // classic: the only family v2 could hold
  ASSERT_NE(f, nullptr);
  std::string bytes = Serialized(*f->index);
  // Reconstruct the exact v2 byte layout from the v3 snapshot: drop the
  // appended family byte (v3 added nothing else) and set the version field.
  RewriteSection(&bytes, "options",
                 [](std::string* payload) { payload->pop_back(); });
  const SnapshotMap map = MapSnapshot(bytes);
  PutU32(&bytes, map.version_off, 2);
  std::stringstream in(bytes);
  auto loaded = SetSimilarityIndex::Load(f->store, in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->embedding().params().minhash.family,
            MinHashFamilyKind::kClassic);
  EXPECT_EQ(loaded->ContentDigest(), f->index->ContentDigest());
}

TEST(FamilyPersistenceTest, TruncationMatrixNeverYieldsAWrongAnswer) {
  auto f = BuildFixture(12, MinHashFamilyKind::kSuperMinHash);
  ASSERT_NE(f, nullptr);
  const std::string full = Serialized(*f->index);
  const SnapshotMap map = MapSnapshot(full);
  // Every prefix through the header + options + layout region (where the
  // family and embedding parameters live), then strided samples across the
  // signatures section and footer.
  const std::size_t dense_end = map.sections[1].payload_off +
                                static_cast<std::size_t>(map.sections[1].size);
  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < dense_end && i < full.size(); ++i) {
    cuts.push_back(i);
  }
  for (std::size_t i = dense_end; i < full.size(); i += 29) cuts.push_back(i);
  for (std::size_t i = full.size() - std::min<std::size_t>(20, full.size());
       i < full.size(); ++i) {
    cuts.push_back(i);
  }
  for (std::size_t cut : cuts) {
    std::stringstream in(full.substr(0, cut));
    auto loaded = SetSimilarityIndex::Load(f->store, in);
    ASSERT_FALSE(loaded.ok()) << "truncated to " << cut << " bytes loaded";
    EXPECT_TRUE(loaded.status().IsDataLoss() ||
                loaded.status().IsCorruption())
        << "truncated to " << cut
        << " bytes: " << loaded.status().ToString();
  }
}

// A two-shard index over 60 random sets: the input of the sharded
// embedding cases below.
struct ShardedFixture {
  SetCollection sets;
  shard::ShardedIndexOptions options;
  std::unique_ptr<shard::ShardedSetSimilarityIndex> index;
};

std::unique_ptr<ShardedFixture> BuildShardedFixture() {
  auto f = std::make_unique<ShardedFixture>();
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    ElementSet s;
    const std::size_t size = 8 + rng.Uniform(40);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(4000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    f->sets.push_back(s);
  }
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.4, FilterKind::kSimilarity, 6, 0},
                   {0.75, FilterKind::kSimilarity, 6, 0}};
  f->options.num_shards = 2;
  f->options.index.embedding.minhash.num_hashes = 40;
  f->options.index.embedding.minhash.seed = 777;
  f->options.index.seed = 4242;
  auto built =
      shard::ShardedSetSimilarityIndex::Build(f->sets, layout, f->options);
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return nullptr;
  f->index = std::make_unique<shard::ShardedSetSimilarityIndex>(
      std::move(built).value());
  return f;
}

TEST(FamilyPersistenceTest, ShardedFamilySkewIsNotSupported) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  const shard::ShardedIndexOptions& options = f->options;
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());
  std::string bytes = buffer.str();

  // Re-sign shard 1's nested snapshot as cminhash (fixing the nested
  // checksums too): both shards now load cleanly on their own, and the
  // only detectable fault is the cross-shard family skew.
  RewriteSection(&bytes, "shard1_index", [](std::string* inner) {
    RewriteSection(inner, "options", [](std::string* payload) {
      payload->back() =
          static_cast<char>(MinHashFamilyKind::kCMinHash);
    });
  });
  std::stringstream in(bytes);
  auto loaded = shard::ShardedSetSimilarityIndex::Load(in, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported())
      << loaded.status().ToString();

  // Same family, different minhash seed (the u64 after num_hashes and
  // value_bits in the options section): every EmbeddingParams field must
  // agree across shards, since the router hands one signature to all.
  std::string seed_skew = buffer.str();
  RewriteSection(&seed_skew, "shard1_index", [](std::string* inner) {
    RewriteSection(inner, "options", [](std::string* payload) {
      PutU64(payload, 12, 778);
    });
  });
  std::stringstream seed_in(seed_skew);
  auto seed_loaded = shard::ShardedSetSimilarityIndex::Load(seed_in, options);
  ASSERT_FALSE(seed_loaded.ok());
  EXPECT_TRUE(seed_loaded.status().IsNotSupported())
      << seed_loaded.status().ToString();

  // Control: the identical surgery writing the *same* family byte back is
  // a no-op and must load (proving the surgeon, not the skew, is benign).
  std::string control = buffer.str();
  RewriteSection(&control, "shard1_index", [](std::string* inner) {
    RewriteSection(inner, "options", [](std::string* payload) {
      payload->back() = static_cast<char>(MinHashFamilyKind::kClassic);
    });
  });
  std::stringstream control_in(control);
  auto control_loaded =
      shard::ShardedSetSimilarityIndex::Load(control_in, options);
  EXPECT_TRUE(control_loaded.ok()) << control_loaded.status().ToString();
}

// A sharded snapshot loaded with caller options that name another minhash
// seed keeps signing under the saved one: shards the grow adds are built
// with the loaded shards' embedding, so the router's one signature probes
// them exactly as each shard's own signing would.
TEST(FamilyPersistenceTest, ShardedLoadSignsGrownShardsWithSavedEmbedding) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  std::stringstream buffer;
  ASSERT_TRUE(f->index->SaveTo(buffer).ok());

  shard::ShardedIndexOptions other = f->options;
  other.index.embedding.minhash.seed = 31337;
  auto loaded = shard::ShardedSetSimilarityIndex::Load(buffer, other);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const EmbeddingParams saved = f->options.index.embedding;
  ASSERT_NE(loaded->embedding(), nullptr);
  EXPECT_TRUE(loaded->embedding()->params() == saved);

  exec::EpochManager em;
  loaded->EnableConcurrentWrites(&em);
  shard::QueryRouterOptions router_options;
  router_options.num_threads = 2;
  shard::QueryRouter router(*loaded, router_options);
  ASSERT_TRUE(loaded->RebalanceTo(4).ok());
  for (std::uint32_t s = 0; s < loaded->num_shards(); ++s) {
    EXPECT_TRUE(loaded->shard_index(s)->embedding().params() == saved)
        << "shard " << s;
  }
  Rng rng(79);
  for (int i = 0; i < 12; ++i) {
    const ElementSet& q = f->sets[rng.Uniform(f->sets.size())];
    const double lo = (i % 3) * 0.3;
    auto serial = loaded->Query(q, lo, 1.0);
    auto routed = router.Query(q, lo, 1.0);
    auto original = f->index->Query(q, lo, 1.0);
    ASSERT_TRUE(serial.ok() && routed.ok() && original.ok());
    EXPECT_EQ(routed->sids, serial->sids) << "query " << i;
    EXPECT_EQ(serial->sids, original->sids) << "query " << i;
    ASSERT_EQ(routed->per_shard.size(), serial->per_shard.size());
    for (std::size_t s = 0; s < serial->per_shard.size(); ++s) {
      EXPECT_EQ(routed->per_shard[s].candidates,
                serial->per_shard[s].candidates)
          << "query " << i << ", shard " << s;
    }
  }
  em.Quiesce();
}

TEST(FamilyPersistenceTest, CheckpointRecoveryPreservesFamilyAndReplays) {
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    auto f = BuildFixture(30, family);
    ASSERT_NE(f, nullptr);

    std::ostringstream ckpt;
    ASSERT_TRUE(WriteIndexCheckpoint(*f->index, /*stable_lsn=*/0, ckpt).ok());
    std::ostringstream wal_stream;
    WalWriter wal(wal_stream, kWalFirstLsn);
    f->index->AttachWal(&wal);

    // Mutations past the checkpoint, through the WAL: recovery must replay
    // them under the checkpointed family.
    Rng rng(91);
    for (int t = 0; t < 6; ++t) {
      ElementSet s;
      const std::size_t size = 10 + rng.Uniform(30);
      for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(5000));
      NormalizeSet(s);
      if (s.empty()) s.push_back(1);
      auto sid = f->store.Add(s);
      ASSERT_TRUE(sid.ok());
      ASSERT_TRUE(f->index->Insert(*sid, s).ok());
    }
    ASSERT_TRUE(f->index->Erase(2).ok());
    f->index->AttachWal(nullptr);

    std::istringstream ckpt_in(ckpt.str());
    std::istringstream wal_in(wal_stream.str());
    auto recovered = RecoverIndex(ckpt_in, &wal_in);
    ASSERT_TRUE(recovered.ok()) << MinHashFamilyName(family) << ": "
                                << recovered.status().ToString();
    EXPECT_EQ(recovered->index->embedding().params().minhash.family, family);
    EXPECT_EQ(recovered->index->ContentDigest(), f->index->ContentDigest())
        << MinHashFamilyName(family);
  }
}

}  // namespace
}  // namespace ssr
