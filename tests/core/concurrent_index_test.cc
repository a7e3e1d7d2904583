// Concurrency contracts of the single SetSimilarityIndex after
// EnableConcurrentWrites: the monotonic-reads regression (a thread that
// inserts a set observes it on its very next query — the copy-on-write
// publication never lags its own writer), erase visibility, per-thread
// probe unions that match the serial ones, and a readers-vs-writers stress
// where full-range queries run against live Insert/Erase churn. Labeled tsan-critical: the stress slice is the
// single-index half of what the difftest churn schedule does at the
// sharded layer.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/set_similarity_index.h"
#include "exec/epoch.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet RandomSet(Rng& rng) {
  ElementSet s;
  const std::size_t size = 8 + rng.Uniform(32);
  for (std::size_t i = 0; i < size; ++i) s.push_back(rng.Uniform(4000));
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
  options.embedding.minhash.seed = 321;
  options.seed = 777;
  return options;
}

struct LiveIndex {
  std::unique_ptr<SetStore> store;
  std::unique_ptr<SetSimilarityIndex> index;
};

LiveIndex BuildLiveIndex(Rng& rng, std::size_t initial_sets,
                         exec::EpochManager* manager) {
  LiveIndex live;
  live.store = std::make_unique<SetStore>();
  for (std::size_t i = 0; i < initial_sets; ++i) {
    EXPECT_TRUE(live.store->Add(RandomSet(rng)).ok());
  }
  auto built =
      SetSimilarityIndex::Build(*live.store, TestLayout(), TestIndexOptions());
  EXPECT_TRUE(built.ok());
  live.index =
      std::make_unique<SetSimilarityIndex>(std::move(built).value());
  live.index->EnableConcurrentWrites(manager);
  return live;
}

// The monotonic-reads regression: across a seeded loop of fresh inserts, a
// full-range query issued immediately after Insert returns — on the same
// thread — must contain the just-inserted sid. The copy-on-write swap
// publishes before Insert returns; a thread never misses its own write.
TEST(ConcurrentIndexTest, WriterObservesItsOwnInsertImmediately) {
  exec::EpochManager em;
  Rng rng(20260807);
  LiveIndex live = BuildLiveIndex(rng, 24, &em);

  for (int i = 0; i < 40; ++i) {
    const ElementSet set = RandomSet(rng);
    auto sid = live.store->Add(set);
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(live.index->Insert(*sid, set).ok()) << "iteration " << i;
    auto answer = live.index->Query(set, 0.0, 1.0);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_TRUE(std::binary_search(answer->sids.begin(), answer->sids.end(),
                                   *sid))
        << "iteration " << i << ": insert of sid " << *sid
        << " invisible to its own writer's next query";
  }
  em.Quiesce();
}

// Above σ1 = 0 the size window reads the inserted set's size, so Insert
// must publish the size with the sid: a query at [0.9, 1] finds the set on
// the writer's next query, and on any reader's query that starts after the
// Insert returned.
TEST(ConcurrentIndexTest, WriterFindsItsOwnInsertAboveSigmaZero) {
  constexpr int kInserts = 60;
  constexpr int kReaders = 2;
  exec::EpochManager em;
  Rng rng(20261017);
  LiveIndex live = BuildLiveIndex(rng, 24, &em);

  // The writer fills inserted[i] and then publishes acked = i + 1; readers
  // query only acknowledged entries.
  std::vector<std::pair<SetId, ElementSet>> inserted(kInserts);
  std::atomic<int> acked{0};
  std::atomic<bool> done{false};
  std::atomic<int> reader_misses{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng pick(1000 + r);
      SetStore::ReadView view(*live.store);
      while (!done.load()) {
        const int n = acked.load();
        if (n == 0) {
          std::this_thread::yield();
          continue;
        }
        const auto& [sid, set] = inserted[pick.Uniform(n)];
        auto answer = live.index->QueryThrough(view, set, 0.9, 1.0);
        if (!answer.ok() || !std::binary_search(answer->sids.begin(),
                                                answer->sids.end(), sid)) {
          reader_misses.fetch_add(1);
        }
      }
    });
  }

  // No ASSERT before the readers are joined: failures are recorded and the
  // loop stops.
  for (int i = 0; i < kInserts; ++i) {
    const ElementSet set = RandomSet(rng);
    auto sid = live.store->Add(set);
    const bool inserted_ok = sid.ok() && live.index->Insert(*sid, set).ok();
    EXPECT_TRUE(inserted_ok) << "iteration " << i;
    if (!inserted_ok) break;
    auto answer = live.index->Query(set, 0.9, 1.0);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(answer.ok() && std::binary_search(answer->sids.begin(),
                                                  answer->sids.end(), *sid))
        << "iteration " << i << ": sid " << *sid
        << " missing from its writer's next [0.9, 1] query";
    inserted[i] = {*sid, set};
    acked.store(i + 1);
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_misses.load(), 0);
  em.Quiesce();
}

// The mirror image: an erase acknowledged to the writer is gone from its
// very next query.
TEST(ConcurrentIndexTest, WriterObservesItsOwnEraseImmediately) {
  exec::EpochManager em;
  Rng rng(20260808);
  LiveIndex live = BuildLiveIndex(rng, 24, &em);

  for (int i = 0; i < 20; ++i) {
    const ElementSet set = RandomSet(rng);
    auto sid = live.store->Add(set);
    ASSERT_TRUE(sid.ok());
    ASSERT_TRUE(live.index->Insert(*sid, set).ok());
    ASSERT_TRUE(live.index->Erase(*sid).ok()) << "iteration " << i;
    ASSERT_TRUE(live.store->Delete(*sid).ok());
    auto answer = live.index->Query(set, 0.0, 1.0);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_FALSE(std::binary_search(answer->sids.begin(), answer->sids.end(),
                                    *sid))
        << "iteration " << i << ": erased sid " << *sid << " still visible";
  }
  em.Quiesce();
}

// The probe union runs through a per-thread bitmap (SortUniqueSids in
// core/sfi.h). Three threads probing at once must each get exactly the
// serial candidate lists: no bit may leak between threads or into a
// thread's next query.
TEST(ConcurrentIndexTest, ThreadsQueryCandidatesMatchSerial) {
  constexpr int kThreads = 3;
  exec::EpochManager em;
  Rng rng(20261020);
  LiveIndex live = BuildLiveIndex(rng, 600, &em);

  // Ranges whose plans probe the DFI, the SFIs or both; none falls through
  // to the full-collection plan.
  const double kRanges[][2] = {
      {0.0, 0.3}, {0.2, 0.6}, {0.4, 1.0}, {0.5, 0.8}, {0.75, 1.0}};
  struct Probe {
    ElementSet query;
    double sigma1, sigma2;
  };
  std::vector<Probe> probes;
  for (int i = 0; i < 40; ++i) {
    const auto& range = kRanges[i % 5];
    ElementSet query = i % 2 == 0
                           ? live.store->Get(rng.Uniform(600)).value()
                           : RandomSet(rng);
    probes.push_back({std::move(query), range[0], range[1]});
  }
  std::vector<std::vector<SetId>> serial;
  for (const Probe& p : probes) {
    auto candidates = live.index->QueryCandidates(p.query, p.sigma1, p.sigma2);
    ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
    serial.push_back(candidates->sids);
  }
  // The unions span many 64-sid words.
  std::size_t largest = 0;
  for (const auto& sids : serial) largest = std::max(largest, sids.size());
  ASSERT_GT(largest, 128u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 5; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          // Each thread walks the probes from its own offset.
          const std::size_t k = (i + 13 * static_cast<std::size_t>(t)) %
                                probes.size();
          const Probe& p = probes[k];
          auto candidates =
              live.index->QueryCandidates(p.query, p.sigma1, p.sigma2);
          if (!candidates.ok() || candidates->sids != serial[k]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  em.Quiesce();
}

// Readers against live churn: R reader threads run full- and partial-range
// queries while W writer threads insert and erase. Reader answers must
// always be well-formed (sorted, unique, in-bounds) and queries must never
// error — an erase racing a candidate fetch degrades (sequential fallback)
// rather than failing. After the churn quiesces, a final query agrees with
// the surviving live set exactly.
TEST(ConcurrentIndexStressTest, QueriesStayWellFormedUnderChurn) {
  constexpr std::size_t kInitial = 48;
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kOpsPerWriter = 120;

  exec::EpochManager em;
  Rng rng(977);
  LiveIndex live = BuildLiveIndex(rng, kInitial, &em);

  // Writers own disjoint sid ranges above the initial block, so they never
  // contend on a sid and the surviving set is easy to reconstruct.
  std::mutex store_mu;  // SetStore::Add allocates dense sids: serialize it
  std::atomic<bool> stop{false};
  std::vector<std::vector<SetId>> writer_live(kWriters);
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng wrng(1000 + w);
      std::vector<std::pair<SetId, ElementSet>> mine;
      for (int i = 0; i < kOpsPerWriter; ++i) {
        if (mine.size() < 4 || wrng.Bernoulli(0.65)) {
          const ElementSet set = RandomSet(wrng);
          SetId sid = kInvalidSetId;
          {
            std::lock_guard<std::mutex> lock(store_mu);
            auto added = live.store->Add(set);
            ASSERT_TRUE(added.ok());
            sid = *added;
          }
          ASSERT_TRUE(live.index->Insert(sid, set).ok());
          mine.push_back({sid, set});
        } else {
          const std::size_t pick = wrng.Uniform(mine.size());
          const SetId sid = mine[pick].first;
          ASSERT_TRUE(live.index->Erase(sid).ok());
          {
            std::lock_guard<std::mutex> lock(store_mu);
            ASSERT_TRUE(live.store->Delete(sid).ok());
          }
          mine.erase(mine.begin() + pick);
        }
      }
      for (const auto& entry : mine) writer_live[w].push_back(entry.first);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rrng(2000 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const ElementSet probe = RandomSet(rrng);
        const double lo = rrng.Bernoulli(0.5) ? 0.0 : rrng.NextDouble() * 0.6;
        auto answer = live.index->Query(probe, lo, 1.0);
        ASSERT_TRUE(answer.ok()) << answer.status().ToString();
        ASSERT_TRUE(std::is_sorted(answer->sids.begin(), answer->sids.end()));
        ASSERT_TRUE(std::adjacent_find(answer->sids.begin(),
                                       answer->sids.end()) ==
                    answer->sids.end())
            << "duplicate sid in a concurrent answer";
      }
    });
  }

  for (int w = 0; w < kWriters; ++w) threads[w].join();
  stop.store(true);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  em.Quiesce();

  // Quiesced: the index answers exactly the surviving sids on full range.
  std::vector<SetId> expect;
  for (SetId sid = 0; sid < kInitial; ++sid) expect.push_back(sid);
  for (const auto& survivors : writer_live) {
    expect.insert(expect.end(), survivors.begin(), survivors.end());
  }
  std::sort(expect.begin(), expect.end());
  auto final_answer = live.index->Query(RandomSet(rng), 0.0, 1.0);
  ASSERT_TRUE(final_answer.ok());
  EXPECT_EQ(final_answer->sids, expect);
  EXPECT_EQ(live.index->num_live_sets(), expect.size());
}

}  // namespace
}  // namespace ssr
