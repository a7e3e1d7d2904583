#include "storage/set_store.h"

#include <atomic>
#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/snapshot.h"
#include "util/random.h"
#include "util/serialize.h"
#include "util/set_ops.h"

namespace ssr {
namespace {

ElementSet MakeSet(std::size_t n, ElementId base = 0) {
  ElementSet s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(base + i);
  return s;
}

TEST(SetStoreTest, AddAssignsDenseSids) {
  SetStore store;
  EXPECT_EQ(store.Add(MakeSet(3)).value(), 0u);
  EXPECT_EQ(store.Add(MakeSet(4)).value(), 1u);
  EXPECT_EQ(store.Add(MakeSet(5)).value(), 2u);
  EXPECT_EQ(store.size(), 3u);
}

TEST(SetStoreTest, RejectsUnnormalizedSets) {
  SetStore store;
  EXPECT_TRUE(store.Add({3, 1, 2}).status().IsInvalidArgument());
  EXPECT_TRUE(store.Add({1, 1}).status().IsInvalidArgument());
}

TEST(SetStoreTest, GetRoundTrips) {
  SetStore store;
  const ElementSet set = MakeSet(10, 42);
  const SetId sid = store.Add(set).value();
  auto got = store.Get(sid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), set);
}

TEST(SetStoreTest, GetUnknownSidFails) {
  SetStore store;
  EXPECT_TRUE(store.Get(99).status().IsNotFound());
}

TEST(SetStoreTest, DeleteUnlinksButKeepsOthers) {
  SetStore store;
  const SetId a = store.Add(MakeSet(3, 0)).value();
  const SetId b = store.Add(MakeSet(3, 10)).value();
  ASSERT_TRUE(store.Delete(a).ok());
  EXPECT_FALSE(store.Contains(a));
  EXPECT_TRUE(store.Contains(b));
  EXPECT_TRUE(store.Get(a).status().IsNotFound());
  EXPECT_TRUE(store.Get(b).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Delete(a).IsNotFound());
}

TEST(SetStoreTest, ScanSkipsDeleted) {
  SetStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(3, i * 10)).ok());
  }
  ASSERT_TRUE(store.Delete(4).ok());
  ASSERT_TRUE(store.Delete(7).ok());
  std::vector<SetId> seen;
  store.ScanAll([&](SetId sid, const ElementSet&) {
    seen.push_back(sid);
    return true;
  });
  EXPECT_EQ(seen.size(), 8u);
  for (SetId sid : seen) {
    EXPECT_NE(sid, 4u);
    EXPECT_NE(sid, 7u);
  }
}

TEST(SetStoreTest, ScanChargesSequentialReads) {
  SetStore store;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(50, i * 100)).ok());
  }
  store.ResetIoAccounting();
  store.ScanAll([](SetId, const ElementSet&) { return true; });
  EXPECT_EQ(store.io().stats().sequential_reads, store.num_pages());
  EXPECT_EQ(store.io().stats().random_reads, 0u);
}

TEST(SetStoreTest, GetChargesRandomReadsWhenCold) {
  SetStoreOptions options;
  options.buffer_pool_pages = 1;  // effectively no caching across pages
  SetStore store(options);
  std::vector<SetId> sids;
  for (int i = 0; i < 300; ++i) {
    sids.push_back(store.Add(MakeSet(60, i * 100)).value());
  }
  store.ResetIoAccounting();
  ASSERT_TRUE(store.Get(sids[0]).ok());
  ASSERT_TRUE(store.Get(sids[250]).ok());
  EXPECT_GE(store.io().stats().random_reads, 2u);
  EXPECT_EQ(store.io().stats().sequential_reads, 0u);
}

TEST(SetStoreTest, BufferPoolAbsorbsRepeatedGets) {
  SetStoreOptions options;
  options.buffer_pool_pages = 64;
  SetStore store(options);
  const SetId sid = store.Add(MakeSet(10)).value();
  store.ResetIoAccounting();
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(store.Get(sid).ok());
  EXPECT_EQ(store.io().stats().random_reads, 1u);  // only the first is cold
}

TEST(SetStoreTest, SpannedSetsRoundTripThroughStore) {
  SetStore store;
  const ElementSet big = MakeSet(3000);
  const SetId sid = store.Add(big).value();
  auto got = store.Get(sid);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), big);
}

TEST(SetStoreTest, AvgSetPagesReflectsSizes) {
  SetStore store;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(100)).ok());  // 808 bytes each
  }
  const double avg = store.AvgSetPages();
  EXPECT_NEAR(avg, 808.0 / 4096.0, 0.01);
}

TEST(SetStoreTest, ScanEarlyStopHaltsCharging) {
  SetStore store;
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(store.Add(MakeSet(60, i)).ok());
  }
  store.ResetIoAccounting();
  int visits = 0;
  store.ScanAll([&](SetId, const ElementSet&) { return ++visits < 5; });
  EXPECT_LT(store.io().stats().sequential_reads, store.num_pages());
}

TEST(SetStoreTest, ManySetsStressRoundTrip) {
  SetStore store;
  Rng rng(66);
  std::vector<ElementSet> sets;
  for (int i = 0; i < 500; ++i) {
    ElementSet s;
    const std::size_t n = 1 + rng.Uniform(120);
    for (std::size_t j = 0; j < n; ++j) s.push_back(rng.Uniform(100000));
    NormalizeSet(s);
    sets.push_back(s);
    ASSERT_TRUE(store.Add(s).ok());
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(store.Get(static_cast<SetId>(i)).value(), sets[i]);
  }
}

// A store snapshot whose store-level sections hold `next_sid`, `live` and
// `locators`, followed by `heap`'s own snapshot. Every checksum holds, so
// only the store's consistency checks can reject it.
std::string StoreSnapshot(SetId next_sid, const std::vector<SetId>& live,
                          const std::vector<RecordLocator>& locators,
                          const HeapFile& heap) {
  std::ostringstream out;
  SnapshotWriter snapshot(out, "SSRSTORE", 2);
  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU32(next_sid);
  meta.WriteU64(0);  // live bytes
  EXPECT_TRUE(snapshot.EndSection().ok());
  BinaryWriter& live_sec = snapshot.BeginSection("live");
  live_sec.WriteVector(live);
  WriteLocators(live_sec, locators);
  EXPECT_TRUE(snapshot.EndSection().ok());
  EXPECT_TRUE(snapshot.Finish().ok());
  EXPECT_TRUE(heap.SaveTo(out).ok());
  return out.str();
}

Status LoadStatus(const std::string& bytes) {
  std::istringstream in(bytes);
  return SetStore::Load(in).status();
}

// A three-record heap: record k holds sid k.
class SetStoreLoadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (SetId sid = 0; sid < 3; ++sid) {
      auto loc = heap_.Append(sid, MakeSet(sid + 1, 10 * sid));
      ASSERT_TRUE(loc.ok());
      locs_.push_back(loc.value());
    }
  }

  HeapFile heap_;
  std::vector<RecordLocator> locs_;
};

// Each case loads its consistent twin first, so the failure it checks is
// the one inconsistency it plants.
TEST_F(SetStoreLoadTest, HeapRecordCountUnlikeNextSidIsCorruption) {
  ASSERT_TRUE(LoadStatus(StoreSnapshot(3, {0}, {locs_[0]}, heap_)).ok());
  EXPECT_TRUE(LoadStatus(StoreSnapshot(4, {0}, {locs_[0]}, heap_))
                  .IsCorruption());
  EXPECT_TRUE(LoadStatus(StoreSnapshot(2, {0}, {locs_[0]}, heap_))
                  .IsCorruption());
}

TEST_F(SetStoreLoadTest, LiveLocatorUnlikeHeapsIsCorruption) {
  ASSERT_TRUE(
      LoadStatus(StoreSnapshot(3, {1, 2}, {locs_[1], locs_[2]}, heap_)).ok());
  EXPECT_TRUE(
      LoadStatus(StoreSnapshot(3, {1, 2}, {locs_[2], locs_[1]}, heap_))
          .IsCorruption());
}

TEST_F(SetStoreLoadTest, RepeatedLiveSidIsCorruption) {
  ASSERT_TRUE(
      LoadStatus(StoreSnapshot(3, {1, 2}, {locs_[1], locs_[2]}, heap_)).ok());
  EXPECT_TRUE(
      LoadStatus(StoreSnapshot(3, {1, 1}, {locs_[1], locs_[1]}, heap_))
          .IsCorruption());
}

// Inline and spanned records and one deleted sid, so a snapshot carries
// locators of both kinds in "live" and "recdir".
SetStore MixedStore() {
  SetStore store;
  for (SetId k = 0; k < 40; ++k) {
    EXPECT_TRUE(store.Add(MakeSet(k % 13 == 0 ? 700 : 1 + k, 1000 * k)).ok());
  }
  EXPECT_TRUE(store.Delete(7).ok());
  return store;
}

std::string Saved(const SetStore& store) {
  std::ostringstream out;
  EXPECT_TRUE(store.SaveTo(out).ok());
  return out.str();
}

// Copies a store snapshot (the store's framed snapshot, then the heap's)
// through the library's own snapshot reader and writer, passing each
// section's payload through `edit`. Lengths, CRCs and footers are derived
// afresh, so the copy differs from `bytes` only by the edit.
std::string Reframe(
    const std::string& bytes,
    const std::function<void(const std::string&, std::string*)>& edit) {
  struct Frame {
    std::string_view magic;
    std::vector<std::string> sections;
  };
  const Frame frames[] = {{"SSRSTORE", {"meta", "live"}},
                          {"SSRHEAP", {"meta", "spanmap", "recdir", "pages"}}};
  std::istringstream in(bytes);
  std::ostringstream out;
  for (const Frame& frame : frames) {
    SnapshotReader reader(in);
    std::uint32_t version = 0;
    EXPECT_TRUE(reader.ReadHeader(frame.magic, &version).ok());
    SnapshotWriter writer(out, frame.magic, version);
    for (const std::string& name : frame.sections) {
      std::string payload;
      EXPECT_TRUE(reader.ReadSection(name, &payload).ok()) << name;
      edit(name, &payload);
      writer.BeginSection(name).WriteBytes(payload.data(), payload.size());
      EXPECT_TRUE(writer.EndSection().ok());
    }
    EXPECT_TRUE(reader.VerifyFooter().ok());
    EXPECT_TRUE(writer.Finish().ok());
  }
  return out.str();
}

std::uint64_t GetU64(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + off, sizeof(v));
  return v;
}

// Offsets of the 2-byte locator pads in a "live" or "recdir" payload:
// "live" holds the live sids (u64 count, u32 each) ahead of its locators,
// and each run of 8-byte locators follows its own u64 count.
std::vector<std::size_t> LocatorPadOffsets(const std::string& section,
                                           const std::string& payload) {
  if (section != "live" && section != "recdir") return {};
  const std::size_t first =
      section == "live" ? 8 + 4 * GetU64(payload, 0) : 0;
  std::vector<std::size_t> pads;
  for (std::uint64_t i = 0; i < GetU64(payload, first); ++i) {
    pads.push_back(first + 8 + 8 * i + 6);
  }
  return pads;
}

TEST(SetStoreSnapshotTest, EqualStoresSaveIdenticalBytesWithZeroPads) {
  // Compared with == so that a failure does not print both snapshots.
  const std::string first = Saved(MixedStore());
  EXPECT_TRUE(first == Saved(MixedStore()));
  std::size_t pads = 0;
  Reframe(first, [&](const std::string& name, std::string* payload) {
    for (const std::size_t off : LocatorPadOffsets(name, *payload)) {
      ++pads;
      EXPECT_EQ(payload->substr(off, 2), std::string(2, '\0'))
          << name << " pad at " << off;
    }
  });
  EXPECT_EQ(pads, 39u + 40);  // 39 live locators, then 40 in "recdir"
}

TEST(SetStoreSnapshotTest, NonZeroLocatorPadsStillLoad) {
  const std::string clean = Saved(MixedStore());
  const std::string poisoned =
      Reframe(clean, [](const std::string& name, std::string* payload) {
        for (const std::size_t off : LocatorPadOffsets(name, *payload)) {
          payload->replace(off, 2, "\xa5\x5a");
        }
      });
  ASSERT_TRUE(poisoned != clean);
  std::istringstream in(poisoned);
  auto loaded = SetStore::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SetStore expected = MixedStore();
  for (SetId sid = 0; sid < 40; ++sid) {
    auto got = loaded->Get(sid);
    auto want = expected.Get(sid);
    ASSERT_EQ(got.ok(), want.ok()) << "sid " << sid;
    if (want.ok()) {
      EXPECT_EQ(got.value(), want.value()) << "sid " << sid;
    }
  }
  // The pads are rewritten as zero on the next save.
  EXPECT_TRUE(Saved(loaded.value()) == clean);
}

// The set the writer below adds as its k-th set: sizes vary, and every
// 64th set spans pages.
ElementSet RacedSet(SetId k) {
  return MakeSet(k % 64 == 0 ? 700 : 1 + k % 40, 1000 * k);
}

TEST(SetStoreTest, ReadViewsRaceAddAndDelete) {
  SetStoreOptions options;
  options.buffer_pool_pages = 16;
  SetStore store(options);
  constexpr SetId kSets = 1500;
  std::atomic<int> started{0};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      SetStore::ReadView view(store);
      Rng rng(100 + r);
      started.fetch_add(1);
      while (!done.load(std::memory_order_acquire)) {
        // Sids past the writer's cursor included: those are NotFound.
        const SetId sid = static_cast<SetId>(rng.Uniform(kSets + 16));
        auto got = view.Get(sid);
        if (got.ok() ? got.value() != RacedSet(sid)
                     : !got.status().IsNotFound()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  while (started.load() < 3) std::this_thread::yield();
  // No ASSERT here: the readers must be stopped and joined on every path.
  for (SetId k = 0; k < kSets; ++k) {
    auto sid = store.Add(RacedSet(k));
    if (!sid.ok() || sid.value() != k) {
      ADD_FAILURE() << "Add of set " << k;
      break;
    }
    if (k % 3 == 2 && !store.Delete(k - 1).ok()) {
      ADD_FAILURE() << "Delete of sid " << k - 1;
      break;
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_EQ(store.size(), kSets - kSets / 3);
}

}  // namespace
}  // namespace ssr
