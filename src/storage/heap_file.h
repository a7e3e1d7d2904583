// Heap file of set records over slotted pages. Records that fit in one page
// go into shared slotted pages; oversized records get a dedicated run of
// consecutive pages (TOAST-style spanning), so arbitrary set cardinalities
// are supported — the paper explicitly refuses to bound set sizes.
//
// Record wire format: u32 sid, u32 element_count, element_count * u64.

#ifndef SSR_STORAGE_HEAP_FILE_H_
#define SSR_STORAGE_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <vector>

#include "storage/page.h"
#include "storage/snapshot.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// Where a record lives. slot == kSpannedSlot marks a spanned record whose
/// bytes start at `page` and continue through consecutive pages.
struct RecordLocator {
  PageId page = kInvalidPageId;
  std::uint16_t slot = 0;

  static constexpr std::uint16_t kSpannedSlot = 0xffff;
  bool is_spanned() const { return slot == kSpannedSlot; }
  bool valid() const { return page != kInvalidPageId; }
  bool operator==(const RecordLocator&) const = default;
};

/// Writes `locators` with a u64 count, 8 bytes each as snapshots have
/// always laid them out: u32 page, u16 slot, then a u16 pad written as 0.
/// The struct itself is never written raw: its 2 padding bytes are
/// indeterminate, so two saves of one store would differ.
void WriteLocators(BinaryWriter& out,
                   const std::vector<RecordLocator>& locators);

/// Reads what WriteLocators wrote. The pad is ignored: older snapshots may
/// hold any bytes there.
Status ReadLocators(BinaryReader& in, std::vector<RecordLocator>* locators);

/// Append-only heap file (deletes are handled above, in SetStore, by
/// clearing the sid's live bit; space is not reclaimed, as in a classic
/// heap file without vacuum).
class HeapFile {
 public:
  HeapFile() = default;

  /// Appends a record; returns its locator. Fails only on absurd sizes
  /// (> 2^32 pages).
  Result<RecordLocator> Append(SetId sid, const ElementSet& set);

  /// Reads the record at `locator`. `pages_touched`, if non-null, receives
  /// the ids of every page the read touched (the caller charges I/O through
  /// its buffer pool). Fails on invalid locators, and with Corruption when
  /// the slot's directory entry, record header or record lies outside its
  /// page (a CRC-clean snapshot can still carry such a slot).
  Result<ElementSet> Read(const RecordLocator& locator, SetId* sid_out,
                          std::vector<PageId>* pages_touched) const;

  /// Visits all records in file order (sequential). The visitor sees every
  /// record ever appended, including ones later deleted by SetStore; the
  /// caller filters. Returning false from the visitor stops the scan.
  void Scan(const std::function<bool(SetId, const ElementSet&,
                                     const RecordLocator&)>& visitor) const;

  /// Number of allocated pages.
  std::size_t num_pages() const { return pages_.size(); }

  /// Number of records appended.
  std::size_t num_records() const { return num_records_; }

  /// Locator of the `record`-th record appended; `record` < num_records().
  const RecordLocator& locator(std::size_t record) const {
    return record_dir_[record];
  }

  /// Direct page access for the buffer pool. `id` must be < num_pages().
  const Page& page(PageId id) const { return pages_[id]; }

  /// True iff a salvage load quarantined this page (its CRC failed or its
  /// bytes were truncated away). Reads touching a quarantined page return
  /// DataLoss; Scan skips their records.
  bool is_quarantined(PageId id) const {
    return id < quarantined_.size() && quarantined_[id];
  }
  std::size_t num_quarantined_pages() const { return num_quarantined_; }

  /// Writes the file as a checksummed v2 snapshot (storage/snapshot.h):
  /// sections "meta", "spanmap", "recdir", then "pages" with a per-page
  /// CRC32 ahead of each 4 KiB image, so a salvage load can keep intact
  /// pages even when the section as a whole is damaged.
  Status SaveTo(std::ostream& out) const;

  /// Reads a v2 snapshot. Strict mode fails on the first integrity error
  /// (DataLoss = truncation, Corruption = checksum mismatch, NotSupported =
  /// format version skew). With `options.salvage`, damage confined to the
  /// "pages" section or the footer is tolerated: pages failing their CRC
  /// (or truncated away) are zeroed and quarantined, everything else loads.
  static Result<HeapFile> LoadFrom(std::istream& in,
                                   const SnapshotLoadOptions& options = {});

  /// Serialized size in bytes of a record for a set of `n` elements.
  static std::size_t RecordBytes(std::size_t n) { return 8 + 8 * n; }

  /// Max record bytes that fit in a shared slotted page.
  static std::size_t MaxInlineRecordBytes();

 private:
  // Slotted page layout: [u16 slot_count][u16 free_offset][records...]
  // [... slot dir grows from page end: u16 record_offset per slot].
  static constexpr std::size_t kHeaderBytes = 4;

  Page& NewPage();
  // Returns the page currently open for small-record appends, or creates one.
  PageId CurrentSlottedPage(std::size_t need_bytes);

  std::vector<Page> pages_;
  // Pages used as spanned-record storage (not slotted). Parallel to pages_.
  std::vector<bool> is_span_page_;
  // Pages a salvage load gave up on. Parallel to pages_; empty when no
  // salvage ever ran (the common case costs one size() check per read).
  std::vector<bool> quarantined_;
  // Locator of every record in append order, driving Scan() and locator().
  std::vector<RecordLocator> record_dir_;
  PageId open_slotted_page_ = kInvalidPageId;
  std::size_t num_records_ = 0;
  std::size_t num_quarantined_ = 0;
};

}  // namespace ssr

#endif  // SSR_STORAGE_HEAP_FILE_H_
