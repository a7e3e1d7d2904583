#include "storage/heap_file.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "util/crc32.h"
#include "util/serialize.h"

namespace ssr {

std::size_t HeapFile::MaxInlineRecordBytes() {
  // Header + at least one slot directory entry must fit alongside.
  return kPageSize - kHeaderBytes - 2;
}

Page& HeapFile::NewPage() {
  pages_.emplace_back();
  is_span_page_.push_back(false);
  return pages_.back();
}

PageId HeapFile::CurrentSlottedPage(std::size_t need_bytes) {
  if (open_slotted_page_ != kInvalidPageId &&
      !is_quarantined(open_slotted_page_)) {
    const Page& p = pages_[open_slotted_page_];
    const std::uint16_t slot_count = p.ReadU16(0);
    const std::uint16_t free_offset = p.ReadU16(2);
    const std::size_t dir_bytes = 2 * (static_cast<std::size_t>(slot_count) + 1);
    // free_offset < kHeaderBytes means the page header itself is damaged
    // (e.g. a zeroed quarantined page): never append into it.
    if (free_offset >= kHeaderBytes &&
        free_offset + need_bytes + dir_bytes <= kPageSize) {
      return open_slotted_page_;
    }
  }
  Page& p = NewPage();
  p.WriteU16(0, 0);
  p.WriteU16(2, kHeaderBytes);
  open_slotted_page_ = static_cast<PageId>(pages_.size() - 1);
  return open_slotted_page_;
}

Result<RecordLocator> HeapFile::Append(SetId sid, const ElementSet& set) {
  const std::size_t bytes = RecordBytes(set.size());
  RecordLocator loc;
  if (bytes <= MaxInlineRecordBytes()) {
    const PageId pid = CurrentSlottedPage(bytes);
    Page& p = pages_[pid];
    const std::uint16_t slot = p.ReadU16(0);
    const std::uint16_t offset = p.ReadU16(2);
    p.WriteU32(offset, sid);
    p.WriteU32(offset + 4, static_cast<std::uint32_t>(set.size()));
    for (std::size_t i = 0; i < set.size(); ++i) {
      p.WriteU64(offset + 8 + 8 * i, set[i]);
    }
    p.WriteU16(kPageSize - 2 * (static_cast<std::size_t>(slot) + 1), offset);
    p.WriteU16(0, static_cast<std::uint16_t>(slot + 1));
    p.WriteU16(2, static_cast<std::uint16_t>(offset + bytes));
    loc = RecordLocator{pid, slot};
  } else {
    // Spanned record: serialize, then copy across dedicated pages.
    std::vector<std::uint8_t> buf(bytes);
    std::uint32_t sid32 = sid;
    std::uint32_t count32 = static_cast<std::uint32_t>(set.size());
    std::memcpy(buf.data(), &sid32, 4);
    std::memcpy(buf.data() + 4, &count32, 4);
    std::memcpy(buf.data() + 8, set.data(), 8 * set.size());
    const PageId first = static_cast<PageId>(pages_.size());
    std::size_t written = 0;
    while (written < bytes) {
      Page& p = NewPage();
      is_span_page_.back() = true;
      const std::size_t chunk =
          bytes - written < kPageSize ? bytes - written : kPageSize;
      p.WriteBytes(0, buf.data() + written, chunk);
      written += chunk;
    }
    // A span interrupts the open slotted page only logically; it can still
    // accept records (pages need not be physically contiguous with it).
    loc = RecordLocator{first, RecordLocator::kSpannedSlot};
  }
  ++num_records_;
  record_dir_.push_back(loc);
  return loc;
}

Result<ElementSet> HeapFile::Read(const RecordLocator& locator, SetId* sid_out,
                                  std::vector<PageId>* pages_touched) const {
  if (!locator.valid() || locator.page >= pages_.size()) {
    return Status::InvalidArgument("record locator out of range");
  }
  if (is_quarantined(locator.page)) {
    return Status::DataLoss("record page quarantined by recovery");
  }
  if (!locator.is_spanned()) {
    const Page& p = pages_[locator.page];
    if (is_span_page_[locator.page]) {
      return Status::Corruption("slotted locator points to span page");
    }
    const std::uint16_t slot_count = p.ReadU16(0);
    if (locator.slot >= slot_count) {
      return Status::NotFound("slot out of range");
    }
    if (pages_touched != nullptr) pages_touched->push_back(locator.page);
    // A page whose CRC checks out can still hold a bad slot directory (the
    // CRC covers whatever bytes were saved), so bound each read before
    // making it: the directory entry, then the 8-byte record header.
    const std::size_t dir_bytes =
        2 * (static_cast<std::size_t>(locator.slot) + 1);
    if (dir_bytes > kPageSize - kHeaderBytes) {
      return Status::Corruption("slot directory entry outside page");
    }
    const std::size_t offset = p.ReadU16(kPageSize - dir_bytes);
    if (offset < kHeaderBytes || offset + 8 > kPageSize) {
      return Status::Corruption("record header outside page");
    }
    const SetId sid = p.ReadU32(offset);
    const std::uint32_t count = p.ReadU32(offset + 4);
    if (offset + RecordBytes(count) > kPageSize) {
      return Status::Corruption("record overruns page");
    }
    ElementSet set(count);
    if (count > 0) p.ReadBytes(offset + 8, set.data(), 8 * set.size());
    if (sid_out != nullptr) *sid_out = sid;
    return set;
  }
  // Spanned record.
  if (!is_span_page_[locator.page]) {
    return Status::Corruption("spanned locator points to slotted page");
  }
  const Page& first = pages_[locator.page];
  const SetId sid = first.ReadU32(0);
  const std::uint32_t count = first.ReadU32(4);
  const std::size_t bytes = RecordBytes(count);
  const std::size_t num_span_pages = (bytes + kPageSize - 1) / kPageSize;
  if (locator.page + num_span_pages > pages_.size()) {
    return Status::Corruption("spanned record overruns file");
  }
  for (std::size_t i = 0; i < num_span_pages; ++i) {
    if (is_quarantined(locator.page + static_cast<PageId>(i))) {
      return Status::DataLoss("spanned record crosses quarantined page");
    }
  }
  // The ids follow the 8-byte header on the first page and run on through
  // the rest: copy each page's share straight into the set.
  ElementSet set(count);
  auto* out = reinterpret_cast<std::uint8_t*>(set.data());
  const std::size_t id_bytes = bytes - 8;
  std::size_t copied = 0;
  for (std::size_t i = 0; i < num_span_pages; ++i) {
    const PageId pid = locator.page + static_cast<PageId>(i);
    if (pages_touched != nullptr) pages_touched->push_back(pid);
    const std::size_t start = i == 0 ? 8 : 0;
    const std::size_t chunk = std::min(kPageSize - start, id_bytes - copied);
    if (chunk > 0) pages_[pid].ReadBytes(start, out + copied, chunk);
    copied += chunk;
  }
  if (sid_out != nullptr) *sid_out = sid;
  return set;
}

namespace {

constexpr std::string_view kHeapFileMagic = "SSRHEAP";
constexpr std::uint32_t kHeapFileVersion = 2;
// A "pages" section entry: u32 CRC32 of the image, then the 4 KiB image.
constexpr std::size_t kPageEntryBytes = 4 + kPageSize;

std::uint32_t ReadLeU32(const char* p) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

}  // namespace

void WriteLocators(BinaryWriter& out,
                   const std::vector<RecordLocator>& locators) {
  out.WriteU64(locators.size());
  for (const RecordLocator& loc : locators) {
    out.WriteU32(loc.page);
    out.WriteU16(loc.slot);
    out.WriteU16(0);  // pad
  }
}

Status ReadLocators(BinaryReader& in, std::vector<RecordLocator>* locators) {
  std::uint64_t count = 0;
  SSR_RETURN_IF_ERROR(in.ReadCount(&count, 8));
  locators->resize(static_cast<std::size_t>(count));
  for (RecordLocator& loc : *locators) {
    std::uint16_t pad = 0;
    SSR_RETURN_IF_ERROR(in.ReadU32(&loc.page));
    SSR_RETURN_IF_ERROR(in.ReadU16(&loc.slot));
    SSR_RETURN_IF_ERROR(in.ReadU16(&pad));
  }
  return Status::OK();
}

Status HeapFile::SaveTo(std::ostream& out) const {
  SnapshotWriter snapshot(out, kHeapFileMagic, kHeapFileVersion);

  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU64(pages_.size());
  meta.WriteU32(open_slotted_page_);
  meta.WriteU64(num_records_);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  BinaryWriter& spanmap = snapshot.BeginSection("spanmap");
  std::vector<std::uint8_t> span_bytes(is_span_page_.size());
  for (std::size_t i = 0; i < is_span_page_.size(); ++i) {
    span_bytes[i] = is_span_page_[i] ? 1 : 0;
  }
  spanmap.WriteVector(span_bytes);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  BinaryWriter& recdir = snapshot.BeginSection("recdir");
  WriteLocators(recdir, record_dir_);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  // Pages last, each prefixed by its own CRC32: damage here leaves the
  // metadata sections intact and lets salvage keep every undamaged page.
  BinaryWriter& pages = snapshot.BeginSection("pages");
  for (const Page& p : pages_) {
    pages.WriteU32(Crc32(p.data(), kPageSize));
    pages.WriteBytes(p.data(), kPageSize);
  }
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  return snapshot.Finish();
}

Result<HeapFile> HeapFile::LoadFrom(std::istream& in,
                                    const SnapshotLoadOptions& options) {
  SnapshotReader snapshot(in);
  std::uint32_t version = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadHeader(kHeapFileMagic, &version));
  if (version != kHeapFileVersion) {
    return Status::NotSupported("unknown heap file version");
  }

  HeapFile file;
  std::string payload;

  // Metadata sections are always strict: without them there is nothing to
  // salvage against.
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("meta", &payload));
  std::uint64_t num_pages = 0;
  std::uint32_t open_page = kInvalidPageId;
  std::uint64_t num_records = 0;
  {
    std::istringstream meta_in(payload);
    BinaryReader meta(meta_in);
    SSR_RETURN_IF_ERROR(meta.ReadU64(&num_pages));
    SSR_RETURN_IF_ERROR(meta.ReadU32(&open_page));
    SSR_RETURN_IF_ERROR(meta.ReadU64(&num_records));
  }

  SSR_RETURN_IF_ERROR(snapshot.ReadSection("spanmap", &payload));
  std::vector<std::uint8_t> span_bytes;
  {
    std::istringstream span_in(payload);
    BinaryReader span(span_in);
    SSR_RETURN_IF_ERROR(span.ReadVector(&span_bytes));
  }
  if (span_bytes.size() != num_pages) {
    return Status::Corruption("span bitmap size mismatch");
  }
  file.is_span_page_.assign(span_bytes.begin(), span_bytes.end());

  SSR_RETURN_IF_ERROR(snapshot.ReadSection("recdir", &payload));
  {
    std::istringstream dir_in(payload);
    BinaryReader dir(dir_in);
    SSR_RETURN_IF_ERROR(ReadLocators(dir, &file.record_dir_));
  }
  if (file.record_dir_.size() != num_records) {
    return Status::Corruption("record directory size mismatch");
  }

  // Pages section: strict mode propagates the first integrity error;
  // salvage walks whatever bytes arrived and quarantines per page.
  const Status pages_status = snapshot.ReadSection("pages", &payload);
  const bool pages_damaged = !pages_status.ok();
  if (pages_damaged && !(options.salvage && (pages_status.IsDataLoss() ||
                                             pages_status.IsCorruption()))) {
    return pages_status;
  }
  if (!pages_damaged && payload.size() != num_pages * kPageEntryBytes) {
    return Status::Corruption("pages section size mismatch");
  }
  file.pages_.resize(static_cast<std::size_t>(num_pages));
  bool any_quarantined = false;
  for (std::size_t i = 0; i < num_pages; ++i) {
    const std::size_t off = i * kPageEntryBytes;
    bool intact = off + kPageEntryBytes <= payload.size();
    if (intact) {
      const std::uint32_t want = ReadLeU32(payload.data() + off);
      intact = Crc32(payload.data() + off + 4, kPageSize) == want;
    }
    if (intact) {
      file.pages_[i].WriteBytes(0, payload.data() + off + 4, kPageSize);
    } else {
      // Salvage only (strict mode returned above): zero and quarantine.
      if (file.quarantined_.empty()) file.quarantined_.resize(num_pages);
      file.quarantined_[i] = true;
      ++file.num_quarantined_;
      any_quarantined = true;
    }
  }

  const Status footer_status = snapshot.VerifyFooter();
  if (!footer_status.ok() && !options.salvage) return footer_status;

  file.open_slotted_page_ = open_page;
  file.num_records_ = static_cast<std::size_t>(num_records);
  // Never resume appends into a page whose contents were lost.
  if (file.open_slotted_page_ != kInvalidPageId &&
      (file.open_slotted_page_ >= file.pages_.size() ||
       file.is_quarantined(file.open_slotted_page_))) {
    file.open_slotted_page_ = kInvalidPageId;
  }

  if (options.report != nullptr) {
    RecoveryReport r;
    r.pages_total = file.pages_.size();
    r.pages_quarantined = file.num_quarantined_;
    r.records_total = file.record_dir_.size();
    if (any_quarantined) {
      for (const RecordLocator& loc : file.record_dir_) {
        if (!loc.valid() || loc.page >= file.pages_.size()) continue;
        if (file.Read(loc, nullptr, nullptr).ok()) continue;
        ++r.records_quarantined;
      }
    }
    r.salvaged = pages_damaged || !footer_status.ok();
    options.report->MergeFrom(r);
  }
  return file;
}

void HeapFile::Scan(const std::function<bool(SetId, const ElementSet&,
                                             const RecordLocator&)>& visitor)
    const {
  for (const RecordLocator& loc : record_dir_) {
    SetId sid = kInvalidSetId;
    auto result = Read(loc, &sid, nullptr);
    if (!result.ok()) continue;  // skip corrupt entries defensively
    if (!visitor(sid, result.value(), loc)) return;
  }
}

}  // namespace ssr
