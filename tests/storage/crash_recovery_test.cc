// The deterministic crash-point harness for the durability protocol
// (checkpoint + WAL + recovery, storage/recovery.h). The headline matrix
// kills the write path at every WAL record boundary and at every byte of a
// torn tail, recovers from (checkpoint, surviving log prefix), and asserts
// the recovered index is bit-identical (ContentDigest) to a reference that
// applied exactly the acknowledged mutation prefix. Mid-log damage must
// surface as a typed error — never a silently wrong index — and under
// sharding an unrecoverable log costs exactly its own shard.
//
// The churn workload is seeded via SSR_FAULT_SEED (fault::SeedFromEnv), so
// the CI crash-matrix job sweeps genuinely different op mixes and record
// geometries while every run stays reproducible.

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "shard/sharded_index.h"
#include "storage/atomic_file.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

constexpr std::size_t kWalHeaderBytes = 6 + 4 + 8;
constexpr std::size_t kInitialSets = 36;
constexpr std::size_t kChurnOps = 10;

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultInjector::Default().Reset(); }
  void TearDown() override { fault::FaultInjector::Default().Reset(); }
};

#ifdef SSR_NO_FAULT_INJECTION
#define SKIP_WITHOUT_INJECTION() \
  GTEST_SKIP() << "built with SSR_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_INJECTION() (void)0
#endif

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

IndexOptions TestIndexOptions() {
  IndexOptions options;
  options.embedding.minhash.num_hashes = 64;
  options.embedding.minhash.seed = 999;
  options.seed = 1234;
  return options;
}

// One acknowledged mutation of the churn phase, with the WAL byte offset
// at which its frame ends (the acknowledged-prefix boundary).
struct Op {
  bool insert = false;
  SetId sid = kInvalidSetId;
  ElementSet set;
  std::size_t end_offset = 0;
};

// A checkpoint, a captured post-checkpoint WAL, and — for every record
// boundary k — the ContentDigest of a reference index that applied exactly
// the first k acknowledged ops. digests[k] is what recovery from any
// truncation inside op k+1's frame must reproduce.
struct CrashFixture {
  std::string checkpoint;  // stable_lsn = 0
  std::string wal;         // start_lsn = 1, one record per op
  std::vector<Op> ops;
  std::vector<std::uint64_t> digests;  // size ops.size() + 1
  std::uint64_t checkpoint_digest = 0;
  std::uint64_t final_digest = 0;
};

std::unique_ptr<CrashFixture> BuildCrashFixture() {
  auto f = std::make_unique<CrashFixture>();
  Rng rng(fault::SeedFromEnv(0xc4a5481ULL));

  SetStore store;
  for (std::size_t i = 0; i < kInitialSets; ++i) {
    EXPECT_TRUE(store.Add(RandomSet(rng)).ok());
  }
  auto built = SetSimilarityIndex::Build(store, TestLayout(),
                                         TestIndexOptions());
  EXPECT_TRUE(built.ok());
  if (!built.ok()) return nullptr;
  SetSimilarityIndex index = std::move(built).value();

  std::ostringstream ckpt_out;
  EXPECT_TRUE(WriteIndexCheckpoint(index, /*stable_lsn=*/0, ckpt_out).ok());
  f->checkpoint = ckpt_out.str();
  f->checkpoint_digest = index.ContentDigest();

  std::ostringstream wal_out;
  WalWriter wal(wal_out, kWalFirstLsn);
  index.AttachWal(&wal);
  std::vector<SetId> live;
  for (SetId sid = 0; sid < kInitialSets; ++sid) live.push_back(sid);
  for (std::size_t i = 0; i < kChurnOps; ++i) {
    Op op;
    op.insert = live.empty() || rng.NextDouble() < 0.6;
    if (op.insert) {
      op.set = RandomSet(rng);
      auto sid = store.Add(op.set);
      EXPECT_TRUE(sid.ok());
      op.sid = sid.value();
      EXPECT_TRUE(index.Insert(op.sid, op.set).ok());
      live.push_back(op.sid);
    } else {
      const std::size_t pick = rng.Uniform(live.size());
      op.sid = live[pick];
      EXPECT_TRUE(index.Erase(op.sid).ok());
      EXPECT_TRUE(store.Delete(op.sid).ok());
      live.erase(live.begin() + pick);
    }
    op.end_offset = wal.bytes_written();
    f->ops.push_back(std::move(op));
  }
  index.AttachWal(nullptr);
  f->wal = wal_out.str();
  f->final_digest = index.ContentDigest();

  // Reference digests per acknowledged-prefix boundary, built by reviving
  // the checkpoint once and applying the ops one by one.
  std::istringstream ckpt_in(f->checkpoint);
  auto ref = RecoverIndex(ckpt_in, /*wal=*/nullptr);
  EXPECT_TRUE(ref.ok());
  if (!ref.ok()) return nullptr;
  f->digests.push_back(ref->index->ContentDigest());
  EXPECT_EQ(f->digests[0], f->checkpoint_digest);
  for (const Op& op : f->ops) {
    if (op.insert) {
      auto sid = ref->store->Add(op.set);
      EXPECT_TRUE(sid.ok());
      EXPECT_EQ(sid.value(), op.sid);
      EXPECT_TRUE(ref->index->Insert(op.sid, op.set).ok());
    } else {
      EXPECT_TRUE(ref->index->Erase(op.sid).ok());
      EXPECT_TRUE(ref->store->Delete(op.sid).ok());
    }
    f->digests.push_back(ref->index->ContentDigest());
  }
  EXPECT_EQ(f->digests.back(), f->final_digest);
  return f;
}

Result<RecoveredIndex> Recover(const CrashFixture& f,
                               const std::string& wal_bytes,
                               const RecoverOptions& options = {}) {
  std::istringstream ckpt_in(f.checkpoint);
  std::istringstream wal_in(wal_bytes);
  return RecoverIndex(ckpt_in, &wal_in, options);
}

TEST_F(CrashRecoveryTest, CheckpointRoundTripsBitIdentically) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  std::istringstream ckpt_in(f->checkpoint);
  auto rec = RecoverIndex(ckpt_in, /*wal=*/nullptr);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->checkpoint_lsn, 0u);
  EXPECT_EQ(rec->recovered_lsn, 0u);
  EXPECT_EQ(rec->index->ContentDigest(), f->checkpoint_digest);
  EXPECT_EQ(rec->index->num_live_sets(), kInitialSets);
}

// The tentpole matrix: a crash can freeze the log at *any* byte. For every
// prefix length the recovered index must be bit-identical to the reference
// that applied exactly the ops whose frames fully landed — torn tails
// truncate cleanly, and recovery is never wrong and never refuses a crash
// artifact.
TEST_F(CrashRecoveryTest, CrashAtEveryWalByteRecoversTheAcknowledgedPrefix) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  for (std::size_t len = 0; len <= f->wal.size(); ++len) {
    auto rec = Recover(*f, f->wal.substr(0, len));
    ASSERT_TRUE(rec.ok()) << "prefix " << len << ": "
                          << rec.status().ToString();
    std::size_t acked = 0;
    while (acked < f->ops.size() && f->ops[acked].end_offset <= len) {
      ++acked;
    }
    ASSERT_EQ(rec->index->ContentDigest(), f->digests[acked])
        << "prefix " << len << " acked " << acked;
    EXPECT_EQ(rec->recovered_lsn, acked) << "prefix " << len;
    EXPECT_EQ(rec->report.wal_records_replayed, acked) << "prefix " << len;
    const bool at_boundary =
        len == f->wal.size() ||
        (len >= kWalHeaderBytes &&
         (acked == 0 ? len == kWalHeaderBytes
                     : len == f->ops[acked - 1].end_offset));
    EXPECT_EQ(rec->report.wal_tail_truncated, !at_boundary)
        << "prefix " << len;
  }
}

// The same matrix through the real write path: a kCrashPoint at the
// "wal/crash" site kills the writer before its k-th append, exactly like a
// power cut between two mutations. The mutation that hit the dead writer
// must fail with nothing applied (memory never runs ahead of the log), and
// recovery from the captured log must land on the same digest as the
// still-running-but-crashed live index.
TEST_F(CrashRecoveryTest, CrashPointAtEveryRecordBoundaryThroughWritePath) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  auto& fi = fault::FaultInjector::Default();
  obs::Counter* crash_points =
      obs::MetricsRegistry::Default().GetCounter("ssr_wal_crash_points_total");
  const std::uint64_t crash_points_before = crash_points->value();

  for (std::size_t k = 0; k <= f->ops.size(); ++k) {
    std::istringstream ckpt_in(f->checkpoint);
    auto live = RecoverIndex(ckpt_in, /*wal=*/nullptr);
    ASSERT_TRUE(live.ok());
    std::ostringstream wal_out;
    WalWriter wal(wal_out, kWalFirstLsn);
    live->index->AttachWal(&wal);

    fi.Reset();
    fi.Enable(fault::SeedFromEnv(7));
    fi.Arm("wal/crash", fault::FaultKind::kCrashPoint,
           fault::FaultSchedule::Once(/*after_hits=*/k));
    for (std::size_t i = 0; i < f->ops.size(); ++i) {
      const Op& op = f->ops[i];
      Status st;
      if (op.insert) {
        auto sid = live->store->Add(op.set);
        ASSERT_TRUE(sid.ok());
        ASSERT_EQ(sid.value(), op.sid);
        st = live->index->Insert(op.sid, op.set);
      } else {
        st = live->index->Erase(op.sid);
        if (st.ok()) {
          ASSERT_TRUE(live->store->Delete(op.sid).ok());
        }
      }
      if (i < k) {
        ASSERT_TRUE(st.ok()) << "crash " << k << " op " << i << ": "
                             << st.ToString();
      } else {
        // The first op to hit the dead writer sees the crash itself;
        // later ops see the dead writer or a precondition that the lost
        // ops never established. Nothing may apply.
        ASSERT_FALSE(st.ok()) << "crash " << k << " op " << i;
      }
    }
    fi.Reset();
    live->index->AttachWal(nullptr);
    if (k < f->ops.size()) {
      EXPECT_TRUE(wal.crashed());
    }

    // A failed append applied nothing: the live index froze at boundary k.
    EXPECT_EQ(live->index->ContentDigest(), f->digests[k]) << "crash " << k;
    // And recovery from the captured log reproduces exactly that state.
    auto rec = Recover(*f, wal_out.str());
    ASSERT_TRUE(rec.ok()) << "crash " << k << ": " << rec.status().ToString();
    EXPECT_EQ(rec->index->ContentDigest(), f->digests[k]) << "crash " << k;
    EXPECT_EQ(rec->recovered_lsn, k) << "crash " << k;
    EXPECT_FALSE(rec->report.wal_tail_truncated) << "crash " << k;
  }
  EXPECT_EQ(crash_points->value() - crash_points_before, f->ops.size());
}

// Mid-log damage (a complete frame with flipped bits) is bit rot, not a
// crash: recovery must refuse with a typed error at every flipped byte —
// silently replaying past it could lose or resurrect acknowledged writes.
TEST_F(CrashRecoveryTest, BitFlipAnywhereInTheLogIsTypedErrorNeverWrong) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  Rng rng(fault::SeedFromEnv(0xb17f11bULL));
  for (std::size_t i = 0; i < f->wal.size(); ++i) {
    std::string flipped = f->wal;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    std::istringstream in(flipped);
    std::vector<WalRecord> records;
    const Status st = ReadWal(in, &records);
    ASSERT_FALSE(st.ok()) << "flip at byte " << i;
    EXPECT_TRUE(st.IsCorruption() || st.IsNotSupported())
        << "flip at byte " << i << ": " << st.ToString();
  }
  // End-to-end through RecoverIndex for a seeded sample of offsets, in
  // both strict and salvage modes: the error propagates, no index comes
  // back.
  for (int t = 0; t < 6; ++t) {
    const std::size_t i = rng.Uniform(f->wal.size());
    std::string flipped = f->wal;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x10);
    auto strict = Recover(*f, flipped);
    EXPECT_FALSE(strict.ok()) << "flip at byte " << i;
    RecoverOptions salvage;
    salvage.snapshot.salvage = true;
    auto salvaged = Recover(*f, flipped, salvage);
    EXPECT_FALSE(salvaged.ok()) << "flip at byte " << i;
  }
}

// A crash between checkpoint publish and log truncation is benign: replay
// skips every record at or below the checkpoint LSN.
TEST_F(CrashRecoveryTest, UntruncatedLogAfterCheckpointReplaysIdempotently) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  auto full = Recover(*f, f->wal);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->recovered_lsn, f->ops.size());

  std::ostringstream ckpt2_out;
  ASSERT_TRUE(
      WriteIndexCheckpoint(*full->index, full->recovered_lsn, ckpt2_out)
          .ok());
  std::istringstream ckpt2_in(ckpt2_out.str());
  std::istringstream wal_in(f->wal);  // the old, never-truncated log
  auto rec = RecoverIndex(ckpt2_in, &wal_in);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->checkpoint_lsn, f->ops.size());
  EXPECT_EQ(rec->recovered_lsn, f->ops.size());
  EXPECT_EQ(rec->report.wal_records_skipped, f->ops.size());
  EXPECT_EQ(rec->report.wal_records_replayed, 0u);
  EXPECT_EQ(rec->index->ContentDigest(), f->final_digest);
}

// Idempotence past the LSN gate: an insert whose effect the checkpoint
// already contains (same sid live) is skipped, not double-applied.
TEST_F(CrashRecoveryTest, ReplayOfAlreadyPresentInsertIsSkipped) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  std::istringstream probe_in(f->checkpoint);
  auto probe = RecoverIndex(probe_in, nullptr);
  ASSERT_TRUE(probe.ok());
  auto sid0 = probe->store->Get(0);
  ASSERT_TRUE(sid0.ok());

  std::ostringstream wal_out;
  WalWriter wal(wal_out, kWalFirstLsn);
  ASSERT_TRUE(wal.AppendInsert(0, sid0.value()).ok());
  auto rec = Recover(*f, wal_out.str());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->report.wal_records_skipped, 1u);
  EXPECT_EQ(rec->report.wal_records_replayed, 0u);
  EXPECT_EQ(rec->index->ContentDigest(), f->checkpoint_digest);
}

// A log that starts past checkpoint_lsn + 1 lost acknowledged records;
// proceeding would be silent data loss, so recovery refuses, typed.
TEST_F(CrashRecoveryTest, WalStartingPastCheckpointIsDataLoss) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  std::ostringstream wal_out;
  WalWriter wal(wal_out, /*start_lsn=*/5);
  ASSERT_TRUE(wal.AppendErase(0).ok());
  auto strict = Recover(*f, wal_out.str());
  EXPECT_TRUE(strict.status().IsDataLoss()) << strict.status().ToString();
  RecoverOptions salvage;
  salvage.snapshot.salvage = true;
  auto salvaged = Recover(*f, wal_out.str(), salvage);
  EXPECT_TRUE(salvaged.status().IsDataLoss());
}

TEST_F(CrashRecoveryTest, RecoveryFillsReportAndMirrorsMetrics) {
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  // Tear inside the frame after the second boundary.
  const std::size_t boundary = f->ops[1].end_offset;
  const std::size_t len = boundary + 5;
  ASSERT_LT(len, f->ops[2].end_offset);

  auto& registry = obs::MetricsRegistry::Default();
  obs::Counter* recoveries = registry.GetCounter("ssr_wal_recoveries_total");
  obs::Counter* replayed =
      registry.GetCounter("ssr_wal_records_replayed_total");
  obs::Counter* truncated =
      registry.GetCounter("ssr_wal_bytes_truncated_total");
  const std::uint64_t recoveries_before = recoveries->value();
  const std::uint64_t replayed_before = replayed->value();
  const std::uint64_t truncated_before = truncated->value();

  RecoveryReport external;
  RecoverOptions options;
  options.snapshot.report = &external;
  auto rec = Recover(*f, f->wal.substr(0, len), options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->report.wal_tail_truncated);
  EXPECT_EQ(rec->report.wal_bytes_truncated, 5u);
  EXPECT_EQ(rec->report.wal_records_replayed, 2u);
  EXPECT_GE(rec->report.wal_recovery_seconds, 0.0);
  // The external report the caller handed in sees the same accounting.
  EXPECT_TRUE(external.wal_tail_truncated);
  EXPECT_EQ(external.wal_records_replayed, 2u);
  // And the process-wide ssr_wal_* instruments record the recovery.
  EXPECT_EQ(recoveries->value() - recoveries_before, 1u);
  EXPECT_EQ(replayed->value() - replayed_before, 2u);
  EXPECT_EQ(truncated->value() - truncated_before, 5u);
  EXPECT_GE(registry.GetGauge("ssr_wal_last_recovery_seconds")->value(), 0.0);
}

// ---------------------------------------------------------------------------
// Atomic checkpoint saves: a kill at any save phase (tmp write, fsync,
// rename) leaves the previous checkpoint file intact and loadable.
// ---------------------------------------------------------------------------

TEST_F(CrashRecoveryTest, AtomicSaveKillAtAnyPhaseKeepsOldCheckpoint) {
  SKIP_WITHOUT_INJECTION();
  auto f = BuildCrashFixture();
  ASSERT_NE(f, nullptr);
  const std::string path =
      ::testing::TempDir() + "ssr_crash_recovery_ckpt.bin";
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());

  std::istringstream old_in(f->checkpoint);
  auto old_state = RecoverIndex(old_in, nullptr);
  ASSERT_TRUE(old_state.ok());
  ASSERT_TRUE(WriteIndexCheckpointFile(*old_state->index, 0, path).ok());

  auto full = Recover(*f, f->wal);  // the state a newer checkpoint would save
  ASSERT_TRUE(full.ok());

  auto& fi = fault::FaultInjector::Default();
  for (std::uint64_t phase = 0; phase < 3; ++phase) {
    fi.Reset();
    fi.Enable(fault::SeedFromEnv(11));
    fi.Arm("file/atomic_save", fault::FaultKind::kCrashPoint,
           fault::FaultSchedule::Once(/*after_hits=*/phase));
    const Status st =
        WriteIndexCheckpointFile(*full->index, f->ops.size(), path);
    EXPECT_TRUE(st.IsUnavailable()) << "phase " << phase << ": "
                                    << st.ToString();
    fi.Reset();
    // The old checkpoint survives the mid-save kill bit-for-bit.
    auto rec = RecoverIndexFromFiles(path, path + ".wal");
    ASSERT_TRUE(rec.ok()) << "phase " << phase << ": "
                          << rec.status().ToString();
    EXPECT_EQ(rec->checkpoint_lsn, 0u);
    EXPECT_EQ(rec->index->ContentDigest(), f->checkpoint_digest);
  }

  // With the faults gone the save lands and recovery sees the new state.
  ASSERT_TRUE(
      WriteIndexCheckpointFile(*full->index, f->ops.size(), path).ok());
  auto rec = RecoverIndexFromFiles(path, path + ".wal");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->checkpoint_lsn, f->ops.size());
  EXPECT_EQ(rec->index->ContentDigest(), f->final_digest);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

TEST_F(CrashRecoveryTest, MissingCheckpointFileIsNotFound) {
  const std::string path =
      ::testing::TempDir() + "ssr_crash_recovery_missing.bin";
  std::remove(path.c_str());
  auto rec = RecoverIndexFromFiles(path, path + ".wal");
  EXPECT_TRUE(rec.status().IsNotFound()) << rec.status().ToString();
}

// ---------------------------------------------------------------------------
// Sharded recovery: per-shard WALs, and an unrecoverable log costs exactly
// its own shard while the rest keep serving.
// ---------------------------------------------------------------------------

struct ShardedFixture {
  static constexpr std::uint32_t kShards = 3;
  shard::ShardedIndexOptions options;
  std::unique_ptr<shard::ShardedSetSimilarityIndex> index;
  std::string checkpoint;                 // stable lsns all 0
  std::vector<std::string> wals;          // by shard
  std::vector<std::uint64_t> last_lsns;   // by shard
  std::uint64_t checkpoint_digest = 0;
  std::uint64_t final_digest = 0;
  std::vector<SetId> live;                // live global sids after churn

  ShardedFixture(const ShardedFixture&) = delete;
  ShardedFixture() = default;
};

std::unique_ptr<ShardedFixture> BuildShardedFixture() {
  auto f = std::make_unique<ShardedFixture>();
  Rng rng(fault::SeedFromEnv(0x54a6dedULL));
  SetCollection sets;
  for (std::size_t i = 0; i < kInitialSets; ++i) sets.push_back(RandomSet(rng));

  f->options.num_shards = ShardedFixture::kShards;
  f->options.index = TestIndexOptions();
  auto built = shard::ShardedSetSimilarityIndex::Build(sets, TestLayout(),
                                                       f->options);
  EXPECT_TRUE(built.ok());
  if (!built.ok()) return nullptr;
  f->index = std::make_unique<shard::ShardedSetSimilarityIndex>(
      std::move(built).value());
  f->checkpoint_digest = f->index->ContentDigest();

  std::ostringstream ckpt_out;
  EXPECT_TRUE(WriteShardedCheckpoint(
                  *f->index,
                  std::vector<std::uint64_t>(ShardedFixture::kShards, 0),
                  ckpt_out)
                  .ok());
  f->checkpoint = ckpt_out.str();

  std::vector<std::unique_ptr<std::ostringstream>> wal_streams;
  std::vector<std::unique_ptr<WalWriter>> writers;
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    wal_streams.push_back(std::make_unique<std::ostringstream>());
    writers.push_back(
        std::make_unique<WalWriter>(*wal_streams.back(), kWalFirstLsn));
    f->index->AttachShardWal(s, writers.back().get());
  }

  for (SetId sid = 0; sid < kInitialSets; ++sid) f->live.push_back(sid);
  SetId next_sid = static_cast<SetId>(kInitialSets);
  for (std::size_t i = 0; i < 14; ++i) {
    if (f->live.empty() || rng.NextDouble() < 0.6) {
      const ElementSet set = RandomSet(rng);
      EXPECT_TRUE(f->index->Insert(next_sid, set).ok());
      f->live.push_back(next_sid);
      ++next_sid;
    } else {
      const std::size_t pick = rng.Uniform(f->live.size());
      EXPECT_TRUE(f->index->Erase(f->live[pick]).ok());
      f->live.erase(f->live.begin() + pick);
    }
  }
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    f->index->AttachShardWal(s, nullptr);
    f->wals.push_back(wal_streams[s]->str());
    f->last_lsns.push_back(writers[s]->last_lsn());
  }
  f->final_digest = f->index->ContentDigest();
  return f;
}

Result<RecoveredShardedIndex> RecoverSharded(
    const ShardedFixture& f, const std::vector<std::string>& wals,
    const SnapshotLoadOptions& load_options = {}) {
  std::istringstream ckpt_in(f.checkpoint);
  std::vector<std::unique_ptr<std::istringstream>> wal_streams;
  std::vector<std::istream*> wal_ptrs;
  for (const std::string& bytes : wals) {
    wal_streams.push_back(std::make_unique<std::istringstream>(bytes));
    wal_ptrs.push_back(wal_streams.back().get());
  }
  return RecoverShardedIndex(ckpt_in, wal_ptrs, f.options, load_options);
}

TEST_F(CrashRecoveryTest, ShardedCheckpointAndWalsRecoverBitIdentically) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  auto rec = RecoverSharded(*f, f->wals);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->index->ContentDigest(), f->final_digest);
  EXPECT_EQ(rec->recovered_lsns, f->last_lsns);
  EXPECT_TRUE(rec->quarantined_shards.empty());
  EXPECT_EQ(rec->index->num_live_sets(), f->live.size());

  // The recovered sharded index answers exactly like the live one.
  auto live_answer = f->index->Query(ElementSet{1, 2, 3}, 0.0, 1.0);
  auto rec_answer = rec->index->Query(ElementSet{1, 2, 3}, 0.0, 1.0);
  ASSERT_TRUE(live_answer.ok() && rec_answer.ok());
  EXPECT_EQ(live_answer->sids, rec_answer->sids);
  EXPECT_FALSE(rec_answer->partial);
}

TEST_F(CrashRecoveryTest, NullShardWalsRecoverTheCheckpointState) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  std::istringstream ckpt_in(f->checkpoint);
  std::vector<std::istream*> no_wals(ShardedFixture::kShards, nullptr);
  auto rec = RecoverShardedIndex(ckpt_in, no_wals, f->options);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->index->ContentDigest(), f->checkpoint_digest);
  EXPECT_EQ(rec->recovered_lsns,
            std::vector<std::uint64_t>(ShardedFixture::kShards, 0));
}

TEST_F(CrashRecoveryTest, WalCountMismatchIsInvalidArgument) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  std::istringstream ckpt_in(f->checkpoint);
  std::vector<std::istream*> too_few(ShardedFixture::kShards - 1, nullptr);
  auto rec = RecoverShardedIndex(ckpt_in, too_few, f->options);
  EXPECT_TRUE(rec.status().IsInvalidArgument()) << rec.status().ToString();
}

TEST_F(CrashRecoveryTest, TornShardWalTailTruncatesWithoutQuarantine) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  // Tear the tail of the first shard that logged anything.
  std::uint32_t victim = ShardedFixture::kShards;
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    if (f->last_lsns[s] > 0) {
      victim = s;
      break;
    }
  }
  ASSERT_LT(victim, ShardedFixture::kShards);
  std::vector<std::string> wals = f->wals;
  wals[victim] = wals[victim].substr(0, wals[victim].size() - 3);

  auto rec = RecoverSharded(*f, wals);  // strict: a torn tail is clean
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(rec->quarantined_shards.empty());
  EXPECT_FALSE(rec->index->shard_degraded(victim));
  EXPECT_TRUE(rec->report.wal_tail_truncated);
  EXPECT_EQ(rec->recovered_lsns[victim], f->last_lsns[victim] - 1);
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    if (s != victim) {
      EXPECT_EQ(rec->recovered_lsns[s], f->last_lsns[s]);
    }
  }
}

TEST_F(CrashRecoveryTest, CorruptShardWalQuarantinesOnlyThatShard) {
  auto f = BuildShardedFixture();
  ASSERT_NE(f, nullptr);
  std::uint32_t victim = ShardedFixture::kShards;
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    if (f->last_lsns[s] > 0) {
      victim = s;
      break;
    }
  }
  ASSERT_LT(victim, ShardedFixture::kShards);
  std::vector<std::string> wals = f->wals;
  wals[victim][kWalHeaderBytes + 3] ^= 0x20;  // mid-log: first record frame

  // Strict recovery refuses the whole load...
  auto strict = RecoverSharded(*f, wals);
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsCorruption()) << strict.status().ToString();

  // ...salvage quarantines exactly the damaged shard.
  obs::Counter* quarantined = obs::MetricsRegistry::Default().GetCounter(
      "ssr_wal_shards_quarantined_total");
  const std::uint64_t quarantined_before = quarantined->value();
  SnapshotLoadOptions salvage;
  salvage.salvage = true;
  auto rec = RecoverSharded(*f, wals, salvage);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec->quarantined_shards,
            std::vector<std::uint32_t>{victim});
  EXPECT_EQ(rec->report.wal_shards_quarantined, 1u);
  EXPECT_EQ(quarantined->value() - quarantined_before, 1u);
  for (std::uint32_t s = 0; s < ShardedFixture::kShards; ++s) {
    EXPECT_EQ(rec->index->shard_degraded(s), s == victim) << "shard " << s;
    if (s != victim) {
      EXPECT_EQ(rec->recovered_lsns[s], f->last_lsns[s]);
    }
  }

  // The router keeps serving: answers are partial, tagged with the lost
  // shard, and every returned sid is a healthy shard's verified answer.
  auto live_answer = f->index->Query(ElementSet{1, 2, 3}, 0.0, 1.0);
  ASSERT_TRUE(live_answer.ok());
  auto rec_answer = rec->index->Query(ElementSet{1, 2, 3}, 0.0, 1.0);
  ASSERT_TRUE(rec_answer.ok()) << rec_answer.status().ToString();
  EXPECT_TRUE(rec_answer->partial);
  ASSERT_EQ(rec_answer->degraded_shards,
            std::vector<std::uint32_t>{victim});
  std::vector<SetId> expected;
  for (SetId sid : live_answer->sids) {
    if (rec->index->shard_map().ShardOf(sid) != victim) {
      expected.push_back(sid);
    }
  }
  EXPECT_EQ(rec_answer->sids, expected);
}

}  // namespace
}  // namespace ssr
