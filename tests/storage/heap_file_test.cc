#include "storage/heap_file.h"

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "storage/snapshot.h"
#include "util/crc32.h"
#include "util/random.h"

namespace ssr {
namespace {

ElementSet MakeSet(std::size_t n, ElementId base = 0) {
  ElementSet s;
  for (std::size_t i = 0; i < n; ++i) s.push_back(base + i);
  return s;
}

TEST(HeapFileTest, AppendAndReadInline) {
  HeapFile file;
  const ElementSet set = MakeSet(10, 100);
  auto loc = file.Append(7, set);
  ASSERT_TRUE(loc.ok());
  EXPECT_FALSE(loc->is_spanned());
  SetId sid = kInvalidSetId;
  auto read = file.Read(loc.value(), &sid, nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(sid, 7u);
  EXPECT_EQ(read.value(), set);
}

TEST(HeapFileTest, MultipleRecordsSharePages) {
  HeapFile file;
  std::vector<RecordLocator> locs;
  for (SetId sid = 0; sid < 50; ++sid) {
    auto loc = file.Append(sid, MakeSet(5, sid * 10));
    ASSERT_TRUE(loc.ok());
    locs.push_back(loc.value());
  }
  // 50 records of 48 bytes each fit in one 4K page comfortably.
  EXPECT_LE(file.num_pages(), 2u);
  for (SetId sid = 0; sid < 50; ++sid) {
    SetId got = kInvalidSetId;
    auto read = file.Read(locs[sid], &got, nullptr);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(got, sid);
    EXPECT_EQ(read.value(), MakeSet(5, sid * 10));
  }
}

TEST(HeapFileTest, SpannedRecordRoundTrip) {
  HeapFile file;
  // 2000 elements -> 16008 bytes -> 4 span pages.
  const ElementSet big = MakeSet(2000);
  auto loc = file.Append(1, big);
  ASSERT_TRUE(loc.ok());
  EXPECT_TRUE(loc->is_spanned());
  EXPECT_GE(file.num_pages(), 4u);
  SetId sid = kInvalidSetId;
  std::vector<PageId> touched;
  auto read = file.Read(loc.value(), &sid, &touched);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(sid, 1u);
  EXPECT_EQ(read.value(), big);
  EXPECT_EQ(touched.size(), (HeapFile::RecordBytes(2000) + kPageSize - 1) /
                                kPageSize);
}

TEST(HeapFileTest, MixedInlineAndSpanned) {
  HeapFile file;
  auto small1 = file.Append(0, MakeSet(3));
  auto big = file.Append(1, MakeSet(1500));
  auto small2 = file.Append(2, MakeSet(4, 77));
  ASSERT_TRUE(small1.ok() && big.ok() && small2.ok());
  EXPECT_EQ(file.Read(small1.value(), nullptr, nullptr).value(), MakeSet(3));
  EXPECT_EQ(file.Read(big.value(), nullptr, nullptr).value(), MakeSet(1500));
  EXPECT_EQ(file.Read(small2.value(), nullptr, nullptr).value(),
            MakeSet(4, 77));
}

TEST(HeapFileTest, ScanVisitsAllInOrder) {
  HeapFile file;
  for (SetId sid = 0; sid < 20; ++sid) {
    ASSERT_TRUE(file.Append(sid, MakeSet(sid % 7 + 1, sid)).ok());
  }
  std::vector<SetId> seen;
  file.Scan([&](SetId sid, const ElementSet& set, const RecordLocator&) {
    EXPECT_EQ(set.size(), sid % 7 + 1);
    seen.push_back(sid);
    return true;
  });
  ASSERT_EQ(seen.size(), 20u);
  for (SetId sid = 0; sid < 20; ++sid) EXPECT_EQ(seen[sid], sid);
}

TEST(HeapFileTest, ScanEarlyStop) {
  HeapFile file;
  for (SetId sid = 0; sid < 10; ++sid) {
    ASSERT_TRUE(file.Append(sid, MakeSet(2)).ok());
  }
  int visits = 0;
  file.Scan([&](SetId, const ElementSet&, const RecordLocator&) {
    return ++visits < 3;
  });
  EXPECT_EQ(visits, 3);
}

TEST(HeapFileTest, InvalidLocatorRejected) {
  HeapFile file;
  ASSERT_TRUE(file.Append(0, MakeSet(2)).ok());
  EXPECT_FALSE(file.Read(RecordLocator{}, nullptr, nullptr).ok());
  EXPECT_FALSE(
      file.Read(RecordLocator{99, 0}, nullptr, nullptr).ok());
  EXPECT_TRUE(file.Read(RecordLocator{0, 5}, nullptr, nullptr)
                  .status()
                  .IsNotFound());
}

TEST(HeapFileTest, PagesTouchedReportedForInline) {
  HeapFile file;
  auto loc = file.Append(0, MakeSet(3));
  std::vector<PageId> touched;
  ASSERT_TRUE(file.Read(loc.value(), nullptr, &touched).ok());
  EXPECT_EQ(touched.size(), 1u);
  EXPECT_EQ(touched[0], loc->page);
}

TEST(HeapFileTest, RecordBytesFormula) {
  EXPECT_EQ(HeapFile::RecordBytes(0), 8u);
  EXPECT_EQ(HeapFile::RecordBytes(10), 88u);
  EXPECT_GT(HeapFile::MaxInlineRecordBytes(), 4000u);
  EXPECT_LT(HeapFile::MaxInlineRecordBytes(), kPageSize);
}

TEST(HeapFileTest, StressRandomSizes) {
  HeapFile file;
  Rng rng(44);
  std::vector<std::pair<RecordLocator, ElementSet>> records;
  for (SetId sid = 0; sid < 300; ++sid) {
    const std::size_t n = 1 + rng.Uniform(900);  // some spanning, some not
    ElementSet set = MakeSet(n, sid * 1000);
    auto loc = file.Append(sid, set);
    ASSERT_TRUE(loc.ok());
    records.emplace_back(loc.value(), std::move(set));
  }
  EXPECT_EQ(file.num_records(), 300u);
  for (SetId sid = 0; sid < 300; ++sid) {
    SetId got = kInvalidSetId;
    auto read = file.Read(records[sid].first, &got, nullptr);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(got, sid);
    EXPECT_EQ(read.value(), records[sid].second);
  }
}

TEST(HeapFileTest, EmptySetRecord) {
  HeapFile file;
  auto loc = file.Append(5, {});
  ASSERT_TRUE(loc.ok());
  auto read = file.Read(loc.value(), nullptr, nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().empty());
}

// A strict-loadable one-page heap file snapshot around `page`: every
// section and page CRC checks out, whatever the page's slot directory says.
std::string OnePageSnapshot(const Page& page) {
  std::ostringstream out;
  SnapshotWriter snapshot(out, "SSRHEAP", 2);
  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU64(1);               // pages
  meta.WriteU32(kInvalidPageId);  // no page open for appends
  meta.WriteU64(1);               // records
  EXPECT_TRUE(snapshot.EndSection().ok());
  snapshot.BeginSection("spanmap").WriteVector(std::vector<std::uint8_t>{0});
  EXPECT_TRUE(snapshot.EndSection().ok());
  WriteLocators(snapshot.BeginSection("recdir"), {RecordLocator{0, 0}});
  EXPECT_TRUE(snapshot.EndSection().ok());
  BinaryWriter& pages = snapshot.BeginSection("pages");
  pages.WriteU32(Crc32(page.data(), kPageSize));
  pages.WriteBytes(page.data(), kPageSize);
  EXPECT_TRUE(snapshot.EndSection().ok());
  EXPECT_TRUE(snapshot.Finish().ok());
  return out.str();
}

// Loads `page` strictly and reads slot `slot` of it.
Status ReadSlot(const Page& page, std::uint16_t slot) {
  std::istringstream in(OnePageSnapshot(page));
  auto file = HeapFile::LoadFrom(in);
  if (!file.ok()) return file.status();
  return file->Read(RecordLocator{0, slot}, nullptr, nullptr).status();
}

// A slotted page whose directory says `slot_count` slots, with slot 0 at
// `offset`.
Page SlottedPage(std::uint16_t slot_count, std::uint16_t offset) {
  Page page;
  page.WriteU16(0, slot_count);
  page.WriteU16(2, 4);  // free offset: just past the page header
  page.WriteU16(kPageSize - 2, offset);
  return page;
}

TEST(HeapFileTest, RecordHeaderPastPageEndIsCorruption) {
  // The 8-byte record header at 4094 would run past the 4 KiB page.
  EXPECT_TRUE(ReadSlot(SlottedPage(1, kPageSize - 2), 0).IsCorruption());
  EXPECT_TRUE(ReadSlot(SlottedPage(1, kPageSize - 7), 0).IsCorruption());
  // An offset inside the page header.
  EXPECT_TRUE(ReadSlot(SlottedPage(1, 0), 0).IsCorruption());
  EXPECT_TRUE(ReadSlot(SlottedPage(1, 3), 0).IsCorruption());
  // The first offset past the page header holds a valid empty record.
  EXPECT_TRUE(ReadSlot(SlottedPage(1, 4), 0).ok());
}

TEST(HeapFileTest, SlotDirectoryEntryOutsidePageIsCorruption) {
  // With a huge slot count, slot 2048's directory entry would sit at
  // kPageSize - 2 * 2049, which wraps around below the page start.
  const Page page = SlottedPage(0xfffe, 4);
  EXPECT_TRUE(ReadSlot(page, 2048).IsCorruption());
  EXPECT_TRUE(ReadSlot(page, 0xfffd).IsCorruption());
  // Slot 2046's entry would overlap the page header itself.
  EXPECT_TRUE(ReadSlot(page, 2046).IsCorruption());
  // Slot 2045's entry is the last one the page can hold; it reads 0, an
  // offset inside the header.
  EXPECT_TRUE(ReadSlot(page, 2045).IsCorruption());
  EXPECT_TRUE(ReadSlot(page, 0).ok());
}

}  // namespace
}  // namespace ssr
