// Randomized differential test harness: one seeded workload — a generated
// collection, a churn phase of Insert/Erase, and mixed range queries — is
// pushed through every executor the system has:
//
//   oracle   sequential scan (baseline/sequential_scan.h, exact by
//            construction)
//   serial   one SetSimilarityIndex
//   batch    exec::BatchExecutor over that index (4 workers)
//   sharded  ShardedSetSimilarityIndex at P in {1, 2, 4, 7}, serial gather
//   routed   QueryRouter::Query (one shared signature) at P = 4
//
// The differential contract pins down exactly what the system guarantees:
//
//   identity   every index-based executor returns the bit-identical answer.
//              Candidate membership is a pure function of signatures (the
//              hash tables fingerprint-disambiguate bucket collisions), so
//              partitioning, batching, and routing must not change results.
//   precision  every answer is a subset of the sequential-scan oracle —
//              exact Jaccard verification admits no false positives.
//   exactness  full-range [0, 1] queries (the kFullCollection plan) are
//              set-identical to the oracle. Narrower plans probe LSH
//              filters whose recall is tunably below 1 by design
//              (Section 4), so oracle-identity there would assert a
//              property the paper's scheme intentionally trades away.
//
// plus the degraded-shard phase: with one shard forced unavailable the
// sharded answers must come back tagged partial and be exactly the healthy
// answer minus the degraded shard's sids — a subset of the oracle, never a
// superset.
//
// The crash-recovery schedule folds the durability protocol (checkpoint +
// WAL, storage/recovery.h) into the same contracts: checkpoint the serial
// index, run journaled churn through an attached WAL, crash at a seeded
// byte offset of the log, recover, re-apply the journal tail the crash
// lost, and the recovered executor must be bit-identical to the one that
// never crashed — then churn and query on, with every contract intact.
//
// Every assertion prints the seed and a copy-paste repro command; pin a
// failing seed with SSR_DIFFTEST_SEED=<seed> (it replaces the default seed
// list, so the failing workload runs alone).

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/sequential_scan.h"
#include "core/set_similarity_index.h"
#include "exec/batch_executor.h"
#include "exec/epoch.h"
#include "shard/query_router.h"
#include "shard/sharded_index.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

constexpr std::uint32_t kShardCounts[] = {1, 2, 4, 7};

// Which signing family the whole schedule runs under. Defaults to classic
// (the digest-compatibility anchor); CI's difftest-sweep matrix crosses the
// seed loop with SSR_DIFFTEST_FAMILY in {classic, superminhash, cminhash},
// and the AllFamiliesOneSeed slice below keeps every family in tier-1.
MinHashFamilyKind DifftestFamily() {
  if (const char* env = std::getenv("SSR_DIFFTEST_FAMILY")) {
    auto parsed = MinHashFamilyFromName(env);
    if (parsed.ok()) return parsed.value();
    ADD_FAILURE() << "unknown SSR_DIFFTEST_FAMILY '" << env << "'";
  }
  return MinHashFamilyKind::kClassic;
}

std::vector<std::uint64_t> DifftestSeeds() {
  if (const char* env = std::getenv("SSR_DIFFTEST_SEED")) {
    char* end = nullptr;
    const unsigned long long pinned = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return {pinned};
  }
  // The default tier-1 slice. CI's difftest-sweep job covers 16 seeds by
  // looping SSR_DIFFTEST_SEED over 101..116 under ASan/UBSan.
  return {101, 102, 103, 104};
}

std::string Repro(std::uint64_t seed) {
  return "repro: SSR_DIFFTEST_SEED=" + std::to_string(seed) +
         " ./tests/difftest_test"
         " --gtest_filter='*DifferentialTest*' (seed " +
         std::to_string(seed) + ")";
}

struct RangeQuery {
  ElementSet query;
  double sigma1 = 0.0;
  double sigma2 = 1.0;
};

// The workload under test, with every executor kept in lockstep. The
// oracle store backs both the sequential scan and the single index, so
// global sids stay dense and identical across all executors.
class Workload {
 public:
  explicit Workload(std::uint64_t seed,
                    MinHashFamilyKind family = DifftestFamily())
      : seed_(seed), family_(family), rng_(seed) {}

  Status BuildAll() {
    const std::size_t n = 120 + rng_.Uniform(80);
    for (std::size_t i = 0; i < n; ++i) sets_.push_back(RandomSet());

    layout_.delta = 0.4;
    layout_.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                      {0.4, FilterKind::kDissimilarity, 8, 0},
                      {0.4, FilterKind::kSimilarity, 8, 0},
                      {0.75, FilterKind::kSimilarity, 8, 0}};

    store_ = std::make_unique<SetStore>();
    for (const ElementSet& s : sets_) {
      auto sid = store_->Add(s);
      if (!sid.ok()) return sid.status();
    }
    live_.assign(sets_.size(), true);

    IndexOptions index_options;
    index_options.embedding.minhash.num_hashes = 80;
    index_options.embedding.minhash.seed = 777;
    index_options.embedding.minhash.family = family_;
    index_options.seed = 4242;
    auto single = SetSimilarityIndex::Build(*store_, layout_, index_options);
    if (!single.ok()) return single.status();
    index_ =
        std::make_unique<SetSimilarityIndex>(std::move(single).value());

    for (std::uint32_t p : kShardCounts) {
      shard::ShardedIndexOptions options;
      options.num_shards = p;
      options.index = index_options;
      auto sharded =
          shard::ShardedSetSimilarityIndex::Build(sets_, layout_, options);
      if (!sharded.ok()) return sharded.status();
      sharded_.push_back(std::make_unique<shard::ShardedSetSimilarityIndex>(
          std::move(sharded).value()));
    }
    return Status::OK();
  }

  // Random churn: erases (live, dead, and never-inserted sids) and fresh
  // inserts, applied to the store+index pair and every sharded index
  // identically. Status contracts are themselves differential assertions:
  // all executors must agree on OK vs NotFound.
  void Churn(std::size_t ops) {
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng_.Bernoulli(0.45) || num_live() <= 10) {
        const SetId sid = static_cast<SetId>(sets_.size());
        sets_.push_back(RandomSet());
        live_.push_back(true);
        auto stored = store_->Add(sets_[sid]);
        ASSERT_TRUE(stored.ok()) << Repro(seed_);
        ASSERT_EQ(*stored, sid) << Repro(seed_);
        ASSERT_TRUE(index_->Insert(sid, sets_[sid]).ok()) << Repro(seed_);
        Journal(/*insert=*/true, sid);
        for (auto& sh : sharded_) {
          ASSERT_TRUE(sh->Insert(sid, sets_[sid]).ok()) << Repro(seed_);
        }
      } else {
        // Bias toward live sids but sometimes pick dead or out-of-range
        // ones: every executor must agree the erase is NotFound.
        SetId sid = static_cast<SetId>(rng_.Uniform(sets_.size() + 5));
        const bool expect_ok = sid < sets_.size() && live_[sid];
        const Status from_index = index_->Erase(sid);
        ASSERT_EQ(from_index.ok(), expect_ok)
            << from_index.ToString() << "\n" << Repro(seed_);
        if (!expect_ok) {
          ASSERT_TRUE(from_index.IsNotFound()) << Repro(seed_);
        } else {
          ASSERT_TRUE(store_->Delete(sid).ok()) << Repro(seed_);
          live_[sid] = false;
          Journal(/*insert=*/false, sid);
        }
        for (auto& sh : sharded_) {
          const Status st = sh->Erase(sid);
          ASSERT_EQ(st.ok(), expect_ok) << st.ToString() << "\n"
                                        << Repro(seed_);
          if (!expect_ok) {
            ASSERT_TRUE(st.IsNotFound()) << Repro(seed_);
          }
        }
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::vector<RangeQuery> MakeQueries(std::size_t n) {
    std::vector<RangeQuery> queries;
    for (std::size_t t = 0; t < n; ++t) {
      RangeQuery q;
      if (rng_.Bernoulli(0.7) && !sets_.empty()) {
        q.query = sets_[rng_.Uniform(sets_.size())];
      } else {
        q.query = RandomSet();
      }
      switch (rng_.Uniform(4)) {
        case 0:  // narrow high-similarity band
          q.sigma1 = 0.6 + rng_.NextDouble() * 0.35;
          q.sigma2 = q.sigma1 + rng_.NextDouble() * (1.0 - q.sigma1);
          break;
        case 1:  // dissimilarity band
          q.sigma1 = rng_.NextDouble() * 0.2;
          q.sigma2 = q.sigma1 + rng_.NextDouble() * 0.3;
          break;
        case 2:  // full range (the kFullCollection plan)
          q.sigma1 = 0.0;
          q.sigma2 = 1.0;
          break;
        default:  // arbitrary mixed range
          q.sigma1 = rng_.NextDouble() * 0.8;
          q.sigma2 = q.sigma1 + rng_.NextDouble() * (1.0 - q.sigma1);
      }
      queries.push_back(std::move(q));
    }
    return queries;
  }

  // Runs `queries` through every executor and asserts the differential
  // contract: executor identity, precision against the oracle, full-range
  // exactness, and the QueryStats invariants. The router answers each query
  // signed once, the signature handed to every shard.
  void CheckAll(const std::vector<RangeQuery>& queries) {
    // Batch inputs once for the batch executor over the single index.
    std::vector<exec::BatchQuery> batch;
    for (const RangeQuery& q : queries) {
      batch.push_back({q.query, q.sigma1, q.sigma2});
    }
    exec::BatchExecutorOptions batch_options;
    batch_options.num_threads = 4;
    exec::BatchExecutor executor(*index_, batch_options);
    const exec::BatchResult batched = executor.Run(batch);
    ASSERT_EQ(batched.failed, 0u) << Repro(seed_);

    shard::QueryRouterOptions router_options;
    router_options.num_threads = 4;
    shard::QueryRouter router(*ShardedAt(4), router_options);

    for (std::size_t i = 0; i < queries.size(); ++i) {
      const RangeQuery& q = queries[i];
      auto oracle = SequentialScanQuery(*store_, q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\n"
                               << Repro(seed_);
      const std::vector<SetId>& truth = oracle->sids;

      // The serial single index is the reference every other executor must
      // reproduce bit for bit.
      auto serial = index_->Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n"
                               << Repro(seed_);
      const std::vector<SetId>& reference = serial->sids;
      ASSERT_TRUE(std::includes(truth.begin(), truth.end(),
                                reference.begin(), reference.end()))
          << "serial index returned a false positive on query " << i << "\n"
          << Repro(seed_);
      if (serial->stats.plan == QueryPlanKind::kFullCollection) {
        ASSERT_EQ(reference, truth)
            << "full-range plan is exact by construction, query " << i << "\n"
            << Repro(seed_);
      }
      CheckStats(serial->stats, i, "serial");

      ASSERT_EQ(batched.results[i].sids, reference)
          << "batch executor diverged on query " << i << "\n" << Repro(seed_);
      CheckStats(batched.results[i].stats, i, "batch");

      for (std::size_t pi = 0; pi < sharded_.size(); ++pi) {
        auto sharded = sharded_[pi]->Query(q.query, q.sigma1, q.sigma2);
        ASSERT_TRUE(sharded.ok()) << sharded.status().ToString() << "\n"
                                  << Repro(seed_);
        ASSERT_EQ(sharded->sids, reference)
            << "sharded P=" << kShardCounts[pi] << " diverged on query " << i
            << "\n" << Repro(seed_);
        ASSERT_FALSE(sharded->partial) << Repro(seed_);
        CheckStats(sharded->stats, i, "sharded");
        // Sharded bookkeeping: merged counters are the per-shard sums.
        std::size_t candidates = 0, size_pruned = 0, fetched = 0;
        for (const QueryStats& ps : sharded->per_shard) {
          candidates += ps.candidates;
          size_pruned += ps.size_pruned;
          fetched += ps.sets_fetched;
        }
        ASSERT_EQ(sharded->stats.candidates, candidates) << Repro(seed_);
        ASSERT_EQ(sharded->stats.size_pruned, size_pruned) << Repro(seed_);
        ASSERT_EQ(sharded->stats.sets_fetched, fetched) << Repro(seed_);
      }

      auto routed_one = router.Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(routed_one.ok()) << routed_one.status().ToString() << "\n"
                                   << Repro(seed_);
      ASSERT_EQ(routed_one->sids, reference)
          << "routed single query diverged on query " << i << "\n"
          << Repro(seed_);
      ASSERT_FALSE(routed_one->partial) << Repro(seed_);
      CheckStats(routed_one->stats, i, "routed");
      // The handed-over signature must probe exactly what each shard's own
      // signing probes: per-shard counters equal the serial P=4 scatter's.
      auto serial_p4 = ShardedAt(4)->Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(serial_p4.ok()) << Repro(seed_);
      ASSERT_EQ(routed_one->per_shard.size(), serial_p4->per_shard.size());
      for (std::size_t s = 0; s < serial_p4->per_shard.size(); ++s) {
        const QueryStats& a = routed_one->per_shard[s];
        const QueryStats& b = serial_p4->per_shard[s];
        ASSERT_EQ(a.plan, b.plan) << "shard " << s << "\n" << Repro(seed_);
        ASSERT_EQ(a.candidates, b.candidates)
            << "shard " << s << ", query " << i << "\n" << Repro(seed_);
        ASSERT_EQ(a.size_pruned, b.size_pruned)
            << "shard " << s << ", query " << i << "\n" << Repro(seed_);
        ASSERT_EQ(a.bucket_accesses, b.bucket_accesses) << Repro(seed_);
        ASSERT_EQ(a.sids_scanned, b.sids_scanned) << Repro(seed_);
        ASSERT_EQ(a.sets_fetched, b.sets_fetched) << Repro(seed_);
        ASSERT_EQ(a.results, b.results) << Repro(seed_);
      }

      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // One shard of the P=4 index forced degraded: answers must be tagged
  // partial and equal the healthy reference answer minus the degraded
  // shard's sids (a subset of the oracle whenever that shard held matches —
  // never a superset).
  void CheckDegraded(const std::vector<RangeQuery>& queries) {
    shard::ShardedSetSimilarityIndex* sharded = ShardedAt(4);
    const std::uint32_t victim =
        static_cast<std::uint32_t>(rng_.Uniform(sharded->num_shards()));
    sharded->SetShardDegraded(victim, true);
    shard::QueryRouter router(*sharded, {});

    for (std::size_t i = 0; i < queries.size(); ++i) {
      const RangeQuery& q = queries[i];
      auto oracle = SequentialScanQuery(*store_, q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(oracle.ok()) << Repro(seed_);
      // The healthy answer (serial single index == healthy sharded, by the
      // identity contract above) minus the victim shard's sids is exactly
      // what the surviving shards can contribute.
      auto healthy = index_->Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(healthy.ok()) << Repro(seed_);
      std::vector<SetId> expect;
      for (SetId sid : healthy->sids) {
        if (sharded->shard_map().ShardOf(sid) != victim) {
          expect.push_back(sid);
        }
      }

      auto serial = sharded->Query(q.query, q.sigma1, q.sigma2);
      auto routed = router.Query(q.query, q.sigma1, q.sigma2);
      ASSERT_TRUE(serial.ok()) << Repro(seed_);
      ASSERT_TRUE(routed.ok()) << Repro(seed_);
      for (const auto* r : {&*serial, &*routed}) {
        ASSERT_TRUE(r->partial) << "degraded answer must be tagged\n"
                                << Repro(seed_);
        ASSERT_TRUE(r->stats.degraded) << Repro(seed_);
        ASSERT_EQ(r->degraded_shards,
                  std::vector<std::uint32_t>{victim}) << Repro(seed_);
        ASSERT_EQ(r->sids, expect)
            << "degraded sharded answer is not oracle-minus-shard on query "
            << i << "\n" << Repro(seed_);
        ASSERT_TRUE(std::includes(oracle->sids.begin(), oracle->sids.end(),
                                  r->sids.begin(), r->sids.end()))
            << "degraded answer returned a superset\n" << Repro(seed_);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
    sharded->SetShardDegraded(victim, false);
  }

  std::size_t num_live() const {
    return static_cast<std::size_t>(
        std::count(live_.begin(), live_.end(), true));
  }

  // Starts the durability protocol on the serial executor: checkpoint its
  // current state (stable LSN 0 for this fresh log) and attach a WAL so
  // every subsequent churn mutation is logged before it applies. Churn also
  // journals each acknowledged op with the log offset its frame ends at —
  // the journal plays the part of the client's redo stream.
  void BeginDurability() {
    std::ostringstream ckpt;
    ASSERT_TRUE(WriteIndexCheckpoint(*index_, /*stable_lsn=*/0, ckpt).ok())
        << Repro(seed_);
    checkpoint_ = ckpt.str();
    wal_ = std::make_unique<WalWriter>(wal_stream_, kWalFirstLsn);
    index_->AttachWal(wal_.get());
  }

  // The crash: freeze the log at a seeded byte offset (anywhere — record
  // boundaries, torn tails, even inside the file header), recover from
  // (checkpoint, surviving prefix), re-apply the journal tail the crash
  // lost, and demand the recovered executor is bit-identical to the one
  // that never went down. The recovered store+index then *replace* the
  // originals: the rest of the schedule churns and queries on the revived
  // artifacts.
  void CrashRecoverResume() {
    index_->AttachWal(nullptr);
    const std::string full = wal_stream_.str();
    const std::size_t crash_at =
        static_cast<std::size_t>(rng_.Uniform(full.size() + 1));

    std::istringstream ckpt_in(checkpoint_);
    std::istringstream wal_in(full.substr(0, crash_at));
    auto rec = RecoverIndex(ckpt_in, &wal_in);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString() << "\ncrash at byte "
                          << crash_at << "\n" << Repro(seed_);

    // Exactly the ops whose WAL frames fully landed are recovered.
    std::size_t acked = 0;
    while (acked < journal_.size() &&
           journal_[acked].end_offset <= crash_at) {
      ++acked;
    }
    ASSERT_EQ(rec->recovered_lsn, acked)
        << "crash at byte " << crash_at << "\n" << Repro(seed_);

    // Redo the lost tail from the journal. The store's dense sid allocator
    // makes replay deterministic: re-inserting in journal order must hand
    // back the original sids.
    for (std::size_t i = acked; i < journal_.size(); ++i) {
      const JournalOp& op = journal_[i];
      if (op.insert) {
        auto sid = rec->store->Add(sets_[op.sid]);
        ASSERT_TRUE(sid.ok()) << Repro(seed_);
        ASSERT_EQ(*sid, op.sid) << Repro(seed_);
        ASSERT_TRUE(rec->index->Insert(op.sid, sets_[op.sid]).ok())
            << Repro(seed_);
      } else {
        ASSERT_TRUE(rec->index->Erase(op.sid).ok()) << Repro(seed_);
        ASSERT_TRUE(rec->store->Delete(op.sid).ok()) << Repro(seed_);
      }
    }
    ASSERT_EQ(rec->index->ContentDigest(), index_->ContentDigest())
        << "recovered executor diverged from the uncrashed one, crash at "
        << "byte " << crash_at << "\n" << Repro(seed_);

    // Adopt the revived pair and resume logging on a fresh (truncated) log,
    // as a real recovery would. Every journaled op is now applied, so the
    // next LSN continues past the whole journal.
    const std::uint64_t next_lsn =
        kWalFirstLsn + static_cast<std::uint64_t>(journal_.size());
    store_ = std::move(rec->store);
    index_ = std::move(rec->index);
    journal_.clear();
    wal_stream_.str(std::string());
    wal_stream_.clear();
    wal_ = std::make_unique<WalWriter>(wal_stream_, next_lsn);
    index_->AttachWal(wal_.get());
  }

 private:
  struct JournalOp {
    bool insert = false;
    SetId sid = kInvalidSetId;
    std::size_t end_offset = 0;
  };

  void Journal(bool insert, SetId sid) {
    if (wal_ == nullptr) return;
    journal_.push_back({insert, sid, wal_->bytes_written()});
  }
  ElementSet RandomSet() {
    ElementSet s;
    const std::size_t size = 8 + rng_.Uniform(64);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng_.Uniform(5000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    return s;
  }

  shard::ShardedSetSimilarityIndex* ShardedAt(std::uint32_t p) {
    for (std::size_t i = 0; i < sharded_.size(); ++i) {
      if (kShardCounts[i] == p) return sharded_[i].get();
    }
    return nullptr;
  }

  void CheckStats(const QueryStats& stats, std::size_t i, const char* who) {
    ASSERT_GE(stats.candidates, stats.results)
        << who << " verified more sids than it had candidates, query " << i
        << "\n" << Repro(seed_);
    ASSERT_LE(stats.sets_fetched, stats.candidates)
        << who << " fetched more sets than candidates, query " << i << "\n"
        << Repro(seed_);
    ASSERT_FALSE(stats.degraded)
        << who << " degraded without injected faults, query " << i << "\n"
        << Repro(seed_);
    ASSERT_EQ(stats.probe_failures, 0u) << Repro(seed_);
    ASSERT_EQ(stats.fetch_failures, 0u) << Repro(seed_);
  }

  const std::uint64_t seed_;
  const MinHashFamilyKind family_;
  Rng rng_;
  SetCollection sets_;
  std::vector<bool> live_;
  IndexLayout layout_;
  std::unique_ptr<SetStore> store_;
  std::unique_ptr<SetSimilarityIndex> index_;
  std::vector<std::unique_ptr<shard::ShardedSetSimilarityIndex>> sharded_;

  // Durability-schedule state (BeginDurability / CrashRecoverResume).
  std::string checkpoint_;
  std::ostringstream wal_stream_;
  std::unique_ptr<WalWriter> wal_;
  std::vector<JournalOp> journal_;
};

// The concurrent-churn schedule: W writer threads mutate the oracle store,
// the single index, and one sharded index in lockstep (each op under one
// op mutex, so the executors apply the identical op sequence), R reader
// threads query both executors continuously, and one driver thread runs
// online rebalances (grow P=3 -> 5, shrink back to 3, repeating) — all
// concurrently. While the churn runs, readers hold the weak contracts the
// live system guarantees: every answer is well-formed (sorted, unique, no
// invented sid), queries never error, and an answer that overlapped a
// rebalance is tagged. After the threads quiesce (joins + epoch Quiesce)
// the full differential contract must hold again on the settled state.
class ChurnSchedule {
 public:
  explicit ChurnSchedule(std::uint64_t seed)
      : seed_(seed), rng_(seed ^ 0xc4u) {}

  Status Build() {
    const std::size_t n = 100 + rng_.Uniform(60);
    layout_.delta = 0.4;
    layout_.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                      {0.4, FilterKind::kDissimilarity, 8, 0},
                      {0.4, FilterKind::kSimilarity, 8, 0},
                      {0.75, FilterKind::kSimilarity, 8, 0}};
    store_ = std::make_unique<SetStore>();
    for (std::size_t i = 0; i < n; ++i) {
      sets_.push_back(RandomSet(rng_));
      auto sid = store_->Add(sets_.back());
      if (!sid.ok()) return sid.status();
    }
    live_.assign(n, true);
    bound_.store(n);

    IndexOptions index_options;
    index_options.embedding.minhash.num_hashes = 80;
    index_options.embedding.minhash.seed = 777;
    index_options.embedding.minhash.family = DifftestFamily();
    index_options.seed = 4242;
    auto single = SetSimilarityIndex::Build(*store_, layout_, index_options);
    if (!single.ok()) return single.status();
    index_ = std::make_unique<SetSimilarityIndex>(std::move(single).value());
    index_->EnableConcurrentWrites(&em_);

    shard::ShardedIndexOptions sharded_options;
    sharded_options.num_shards = 3;
    sharded_options.index = index_options;
    auto sharded =
        shard::ShardedSetSimilarityIndex::Build(sets_, layout_,
                                                sharded_options);
    if (!sharded.ok()) return sharded.status();
    sharded_ = std::make_unique<shard::ShardedSetSimilarityIndex>(
        std::move(sharded).value());
    sharded_->EnableConcurrentWrites(&em_);
    return Status::OK();
  }

  // W writers + R readers + one rebalance driver, all concurrent. Joins
  // everything and quiesces the epoch manager before returning.
  void Run(int writers, int readers, std::size_t ops_per_writer) {
    std::atomic<bool> readers_stop{false};
    std::atomic<int> writers_live{writers};
    std::vector<std::thread> threads;

    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        Rng wrng(seed_ * 31 + w);
        for (std::size_t i = 0; i < ops_per_writer; ++i) {
          ApplyOneOp(wrng);
          if (::testing::Test::HasFatalFailure()) break;
        }
        writers_live.fetch_sub(1);
      });
    }

    for (int r = 0; r < readers; ++r) {
      threads.emplace_back([&, r] {
        Rng rrng(seed_ * 77 + r);
        shard::QueryRouterOptions router_options;
        router_options.num_threads = 2;
        shard::QueryRouter router(*sharded_, router_options);
        while (!readers_stop.load(std::memory_order_relaxed)) {
          const ElementSet probe = RandomSet(rrng);
          const double lo =
              rrng.Bernoulli(0.4) ? 0.0 : rrng.NextDouble() * 0.7;

          auto serial = index_->Query(probe, lo, 1.0);
          ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n"
                                   << Repro(seed_);
          CheckWellFormed(serial->sids);

          auto sharded = sharded_->Query(probe, lo, 1.0);
          auto routed = router.Query(probe, lo, 1.0);
          for (const auto* res : {&sharded, &routed}) {
            ASSERT_TRUE(res->ok()) << res->status().ToString() << "\n"
                                   << Repro(seed_);
            CheckWellFormed((*res)->sids);
            if ((*res)->rebalancing) {
              ASSERT_TRUE((*res)->partial)
                  << "rebalancing answers must also be tagged partial\n"
                  << Repro(seed_);
              tagged_answers_.fetch_add(1, std::memory_order_relaxed);
            }
          }
          if (::testing::Test::HasFatalFailure()) return;
        }
      });
    }

    // The rebalance driver: grow/shrink cycles while the writers churn (at
    // least one full cycle, bounded so a fast churn cannot spin forever).
    threads.emplace_back([&] {
      for (int cycle = 0; cycle < 6; ++cycle) {
        for (std::uint32_t target : {5u, 3u}) {
          ASSERT_TRUE(sharded_->BeginRebalance(target).ok()) << Repro(seed_);
          for (;;) {
            auto remaining = sharded_->StepRebalance(2);
            ASSERT_TRUE(remaining.ok()) << remaining.status().ToString()
                                        << "\n" << Repro(seed_);
            if (*remaining == 0) break;
            std::this_thread::yield();
          }
          ASSERT_TRUE(sharded_->FinishRebalance().ok()) << Repro(seed_);
          if (::testing::Test::HasFatalFailure()) return;
        }
        if (writers_live.load() == 0) break;
      }
    });

    for (int w = 0; w < writers; ++w) threads[w].join();
    threads.back().join();  // the driver
    readers_stop.store(true);
    for (std::size_t t = writers; t + 1 < threads.size(); ++t) {
      threads[t].join();
    }
    em_.Quiesce();
  }

  // The settled re-check: the full differential contract on the artifacts
  // the churn left behind — identity across executors, precision against
  // the sequential-scan oracle, full-range exactness, no stray tags.
  void CheckSettled(std::size_t num_queries) {
    EXPECT_FALSE(sharded_->rebalancing()) << Repro(seed_);
    EXPECT_EQ(sharded_->num_shards(), 3u) << Repro(seed_);
    std::size_t live_count = 0;
    for (bool alive : live_) live_count += alive ? 1 : 0;
    EXPECT_EQ(index_->num_live_sets(), live_count) << Repro(seed_);
    EXPECT_EQ(sharded_->num_live_sets(), live_count) << Repro(seed_);

    shard::QueryRouter router(*sharded_, {});
    for (std::size_t i = 0; i < num_queries; ++i) {
      const ElementSet probe = rng_.Bernoulli(0.7)
                                   ? sets_[rng_.Uniform(sets_.size())]
                                   : RandomSet(rng_);
      const double lo = rng_.Bernoulli(0.4) ? 0.0 : rng_.NextDouble() * 0.7;
      const double hi =
          lo == 0.0 ? 1.0 : lo + rng_.NextDouble() * (1.0 - lo);

      auto oracle = SequentialScanQuery(*store_, probe, lo, hi);
      ASSERT_TRUE(oracle.ok()) << Repro(seed_);
      auto serial = index_->Query(probe, lo, hi);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n"
                               << Repro(seed_);
      const std::vector<SetId>& reference = serial->sids;
      ASSERT_TRUE(std::includes(oracle->sids.begin(), oracle->sids.end(),
                                reference.begin(), reference.end()))
          << "false positive after churn quiesced, query " << i << "\n"
          << Repro(seed_);
      if (serial->stats.plan == QueryPlanKind::kFullCollection) {
        ASSERT_EQ(reference, oracle->sids)
            << "full-range inexact after churn quiesced, query " << i << "\n"
            << Repro(seed_);
      }

      auto sharded = sharded_->Query(probe, lo, hi);
      auto routed = router.Query(probe, lo, hi);
      for (const auto* res : {&sharded, &routed}) {
        ASSERT_TRUE(res->ok()) << res->status().ToString() << "\n"
                               << Repro(seed_);
        ASSERT_EQ((*res)->sids, reference)
            << "sharded executor diverged after churn quiesced, query " << i
            << "\n" << Repro(seed_);
        ASSERT_FALSE((*res)->partial) << Repro(seed_);
        ASSERT_FALSE((*res)->rebalancing) << Repro(seed_);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  std::uint64_t tagged_answers() const { return tagged_answers_.load(); }

 private:
  // One lockstep mutation: ~60% fresh insert, else erase a random live
  // sid. Status agreement across executors is itself a differential
  // assertion.
  void ApplyOneOp(Rng& wrng) {
    std::lock_guard<std::mutex> lock(op_mu_);
    std::size_t live_count = 0;
    for (bool alive : live_) live_count += alive ? 1 : 0;
    if (live_count <= 10 || wrng.Bernoulli(0.6)) {
      const SetId sid = static_cast<SetId>(sets_.size());
      sets_.push_back(RandomSet(wrng));
      live_.push_back(true);
      // Publish the bound before the sid can surface in any answer.
      bound_.store(sets_.size(), std::memory_order_seq_cst);
      auto stored = store_->Add(sets_.back());
      ASSERT_TRUE(stored.ok()) << Repro(seed_);
      ASSERT_EQ(*stored, sid) << Repro(seed_);
      ASSERT_TRUE(index_->Insert(sid, sets_.back()).ok()) << Repro(seed_);
      ASSERT_TRUE(sharded_->Insert(sid, sets_.back()).ok()) << Repro(seed_);
    } else {
      SetId sid = static_cast<SetId>(wrng.Uniform(sets_.size()));
      while (!live_[sid]) sid = static_cast<SetId>(wrng.Uniform(sets_.size()));
      ASSERT_TRUE(index_->Erase(sid).ok()) << Repro(seed_);
      ASSERT_TRUE(store_->Delete(sid).ok()) << Repro(seed_);
      ASSERT_TRUE(sharded_->Erase(sid).ok()) << Repro(seed_);
      live_[sid] = false;
    }
  }

  // Weak reader contract under live churn: sorted, unique, and no sid
  // beyond the allocation bound at answer time (an invented sid).
  void CheckWellFormed(const std::vector<SetId>& sids) {
    ASSERT_TRUE(std::is_sorted(sids.begin(), sids.end())) << Repro(seed_);
    ASSERT_TRUE(std::adjacent_find(sids.begin(), sids.end()) == sids.end())
        << "duplicate sid in a concurrent answer\n" << Repro(seed_);
    const std::size_t bound = bound_.load(std::memory_order_seq_cst);
    if (!sids.empty()) {
      ASSERT_LT(sids.back(), bound)
          << "answer invented a sid that was never allocated\n"
          << Repro(seed_);
    }
  }

  static ElementSet RandomSet(Rng& rng) {
    ElementSet s;
    const std::size_t size = 8 + rng.Uniform(64);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(5000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    return s;
  }

  const std::uint64_t seed_;
  Rng rng_;
  exec::EpochManager em_;  // declared before the indexes it outlives
  IndexLayout layout_;
  SetCollection sets_;        // op_mu_ during Run
  std::vector<bool> live_;    // op_mu_ during Run
  std::atomic<std::size_t> bound_{0};
  std::unique_ptr<SetStore> store_;
  std::unique_ptr<SetSimilarityIndex> index_;
  std::unique_ptr<shard::ShardedSetSimilarityIndex> sharded_;
  std::mutex op_mu_;
  std::atomic<std::uint64_t> tagged_answers_{0};
};

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialTest, AllExecutorsAgreeAcrossBuildChurnAndDegradation) {
  const std::uint64_t seed = GetParam();
  Workload w(seed);
  ASSERT_TRUE(w.BuildAll().ok()) << Repro(seed);

  // Fresh build: everything agrees.
  w.CheckAll(w.MakeQueries(12));
  if (::testing::Test::HasFatalFailure()) return;

  // Churn, then everything agrees again (twice: holes, then more holes and
  // re-grown sids).
  for (int round = 0; round < 2; ++round) {
    w.Churn(35);
    if (::testing::Test::HasFatalFailure()) return;
    w.CheckAll(w.MakeQueries(10));
    if (::testing::Test::HasFatalFailure()) return;
  }

  // One shard degraded: tagged partial subsets, never supersets.
  w.CheckDegraded(w.MakeQueries(8));
}

TEST_P(DifferentialTest, CrashRecoveryPreservesTheDifferentialContract) {
  const std::uint64_t seed = GetParam();
  Workload w(seed);
  ASSERT_TRUE(w.BuildAll().ok()) << Repro(seed);

  // Checkpoint, then churn with the WAL attached and every op journaled.
  w.BeginDurability();
  if (::testing::Test::HasFatalFailure()) return;
  w.Churn(30);
  if (::testing::Test::HasFatalFailure()) return;

  // Crash at a seeded byte of the log, recover, redo the lost tail; the
  // revived executor replaces the original.
  w.CrashRecoverResume();
  if (::testing::Test::HasFatalFailure()) return;

  // Every differential contract holds on the recovered artifacts...
  w.CheckAll(w.MakeQueries(10));
  if (::testing::Test::HasFatalFailure()) return;

  // ...and keeps holding as the recovered executor resumes churning.
  w.Churn(25);
  if (::testing::Test::HasFatalFailure()) return;
  w.CheckAll(w.MakeQueries(10));
  if (::testing::Test::HasFatalFailure()) return;
  w.CheckDegraded(w.MakeQueries(6));
}

// The concurrent-churn schedule: writers, readers, and a rebalance driver
// race for real, then the harness quiesces and re-checks the full
// differential contract. This is the live-mutability pin: epoch-guarded
// readers never see a torn structure (TSan/ASan enforce that), never an
// invented or duplicated sid (asserted live), and the settled state is
// indistinguishable from having applied the same ops serially.
TEST_P(DifferentialTest, ConcurrentChurnWithRebalanceSettlesToTheContract) {
  const std::uint64_t seed = GetParam();
  ChurnSchedule schedule(seed);
  ASSERT_TRUE(schedule.Build().ok()) << Repro(seed);

  schedule.Run(/*writers=*/2, /*readers=*/2, /*ops_per_writer=*/45);
  if (::testing::Test::HasFatalFailure()) return;

  schedule.CheckSettled(12);
  if (::testing::Test::HasFatalFailure()) return;

  // A second churn round against the settled (post-rebalance) topology,
  // then the contract again: mutability keeps working after the shard set
  // has been grown and shrunk under load.
  schedule.Run(/*writers=*/2, /*readers=*/2, /*ops_per_writer=*/25);
  if (::testing::Test::HasFatalFailure()) return;
  schedule.CheckSettled(8);
}

// One seed under every signing family, including the durability schedule:
// the differential and crash-recovery contracts are family-blind, and this
// slice keeps the non-classic families covered in tier-1 even though the
// seed loop above runs under the (env-selected, default classic) family.
TEST(DifferentialFamilyTest, ContractsHoldUnderEveryFamily) {
  for (MinHashFamilyKind family : kAllMinHashFamilies) {
    SCOPED_TRACE(std::string("family ") +
                 std::string(MinHashFamilyName(family)));
    Workload w(105, family);
    ASSERT_TRUE(w.BuildAll().ok());
    w.CheckAll(w.MakeQueries(8));
    if (::testing::Test::HasFatalFailure()) return;
    w.BeginDurability();
    if (::testing::Test::HasFatalFailure()) return;
    w.Churn(20);
    if (::testing::Test::HasFatalFailure()) return;
    w.CrashRecoverResume();
    if (::testing::Test::HasFatalFailure()) return;
    w.CheckAll(w.MakeQueries(6));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::ValuesIn(DifftestSeeds()),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed_" + std::to_string(i.param);
                         });

}  // namespace
}  // namespace ssr
