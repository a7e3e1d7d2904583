#include "storage/set_store.h"

#include <sstream>

#include "fault/fault_injector.h"
#include "util/serialize.h"
#include "util/set_ops.h"

namespace ssr {

namespace {
SetStoreOptions ResolveMetricsScope(SetStoreOptions options) {
  if (options.metrics_scope.empty()) {
    options.metrics_scope = obs::MetricsRegistry::Default().NewScope("store");
  }
  return options;
}

// The last page a record touches: its own page when slotted; a spanned
// record runs on through consecutive pages.
PageId LastPageOf(const RecordLocator& loc, std::size_t num_elements) {
  if (!loc.is_spanned()) return loc.page;
  const std::size_t pages =
      (HeapFile::RecordBytes(num_elements) + kPageSize - 1) / kPageSize;
  return loc.page + static_cast<PageId>(pages) - 1;
}
}  // namespace

SetStore::SetStore(SetStoreOptions options)
    : options_(ResolveMetricsScope(std::move(options))),
      pool_(options_.buffer_pool_pages, options_.metrics_scope),
      io_(options_.io, options_.metrics_scope) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string& scope = options_.metrics_scope;
  sets_added_ = registry.GetCounter("ssr_store_sets_added_total", scope);
  gets_ = registry.GetCounter("ssr_store_gets_total", scope);
  scans_ = registry.GetCounter("ssr_store_scans_total", scope);
  fetch_failures_ =
      registry.GetCounter("ssr_store_fetch_failures_total", scope);
  live_sets_ = registry.GetGauge("ssr_store_live_sets", scope);
  heap_pages_ = registry.GetGauge("ssr_store_heap_pages", scope);
}

SetStore::SetStore(SetStore&& other) noexcept
    : options_(std::move(other.options_)),
      file_(std::move(other.file_)),
      live_(std::move(other.live_)),
      live_count_(other.live_count_),
      pool_(std::move(other.pool_)),
      io_(std::move(other.io_)),
      sets_added_(other.sets_added_),
      gets_(other.gets_),
      scans_(other.scans_),
      fetch_failures_(other.fetch_failures_),
      live_sets_(other.live_sets_),
      heap_pages_(other.heap_pages_),
      live_bytes_(other.live_bytes_) {
  other.live_.clear();
  other.live_count_ = 0;
  other.live_bytes_ = 0;
}

SetStore& SetStore::operator=(SetStore&& other) noexcept {
  if (this != &other) {
    options_ = std::move(other.options_);
    file_ = std::move(other.file_);
    live_ = std::move(other.live_);
    live_count_ = other.live_count_;
    pool_ = std::move(other.pool_);
    io_ = std::move(other.io_);
    sets_added_ = other.sets_added_;
    gets_ = other.gets_;
    scans_ = other.scans_;
    fetch_failures_ = other.fetch_failures_;
    live_sets_ = other.live_sets_;
    heap_pages_ = other.heap_pages_;
    live_bytes_ = other.live_bytes_;
    other.live_.clear();
    other.live_count_ = 0;
    other.live_bytes_ = 0;
  }
  return *this;
}

Result<SetId> SetStore::Add(const ElementSet& set) {
  if (!IsNormalizedSet(set)) {
    return Status::InvalidArgument("set must be sorted and duplicate-free");
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  // Appends hit the device too ("store/add" site). Fault before the sid is
  // allocated so a failed Add leaves the store bit-identical.
  SSR_RETURN_IF_ERROR(
      fault::FaultInjector::Default().CheckStatus("store/add"));
  // The sid is taken only once its record is appended, so the k-th heap
  // record always holds sid k and file_.locator(sid) finds it.
  const SetId sid = static_cast<SetId>(live_.size());
  SSR_RETURN_IF_ERROR(file_.Append(sid, set).status());
  live_.push_back(true);
  ++live_count_;
  // Appends dirty the tail page(s); charge them as sequential writes.
  io_.ChargeWrite(1);
  live_bytes_ += HeapFile::RecordBytes(set.size());
  sets_added_->Increment();
  live_sets_->Set(static_cast<double>(live_count_));
  heap_pages_->Set(static_cast<double>(file_.num_pages()));
  return sid;
}

Result<ElementSet> SetStore::Get(SetId sid) {
  // Exclusive: the fetch mutates the shared pool's LRU state and the I/O
  // counters. Concurrent readers use ReadView (private pool, shared lock).
  std::unique_lock<std::shared_mutex> lock(mu_);
  return GetLocked(sid, pool_, io_);
}

Result<ElementSet> SetStore::GetLocked(SetId sid, BufferPool& pool,
                                       IoCostModel& io) const {
  gets_->Increment();
  if (!IsLiveLocked(sid)) {
    return Status::NotFound("sid " + std::to_string(sid) + " not live");
  }
  const RecordLocator& loc = file_.locator(sid);
  // The page fetch is where transient device faults land ("store/get"
  // site); retry those before letting the error escape to the query layer.
  auto result = fault::RetryWithPolicy(
      options_.get_retry, [&]() -> Result<ElementSet> {
        SSR_RETURN_IF_ERROR(
            fault::FaultInjector::Default().CheckStatus("store/get"));
        SetId stored_sid = kInvalidSetId;
        auto set = file_.Read(loc, &stored_sid, nullptr);
        if (!set.ok()) return set.status();
        if (stored_sid != sid) {
          return Status::Corruption("sid mismatch in heap record");
        }
        const PageId last = LastPageOf(loc, set->size());
        for (PageId pid = loc.page; pid <= last; ++pid) {
          pool.Access(pid, /*sequential=*/false, io);
        }
        return set;
      });
  if (!result.ok()) fetch_failures_->Increment();
  return result;
}

SetStore::ReadView::ReadView(const SetStore& store)
    : store_(&store),
      pool_(store.options_.buffer_pool_pages,
            obs::MetricsRegistry::Default().NewScope(
                store.options_.metrics_scope + "/view")),
      io_(store.options_.io, pool_.metrics_scope()) {}

Result<ElementSet> SetStore::ReadView::Get(SetId sid) {
  // Every mutable touch lands on this view's private pool_/io_; the shared
  // structures (live_, file_) are only read, under the store's shared lock
  // so writers are excluded.
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  return store_->GetLocked(sid, pool_, io_);
}

Status SetStore::Delete(SetId sid) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (!IsLiveLocked(sid)) {
    return Status::NotFound("sid " + std::to_string(sid) + " not live");
  }
  live_[sid] = false;
  --live_count_;
  live_sets_->Set(static_cast<double>(live_count_));
  return Status::OK();
}

// A full-file scan touches every page once, sequentially. Charge pages as
// the record cursor crosses them rather than via the pool: sequential scans
// bypass the (small) pool in real systems to avoid cache pollution.
void SetStore::ScanAllLocked(
    IoCostModel& io,
    const std::function<bool(SetId, const ElementSet&)>& visitor) const {
  PageId last_charged = kInvalidPageId;
  bool stopped = false;
  file_.Scan([&](SetId sid, const ElementSet& set, const RecordLocator& loc) {
    if (stopped) return false;
    // Charge every page from the previous cursor position through this
    // record's last page.
    const PageId first = loc.page;
    const PageId last = LastPageOf(loc, set.size());
    if (last_charged == kInvalidPageId || first > last_charged) {
      io.ChargeSequentialRead(last - first + 1);
      last_charged = last;
    } else if (last > last_charged) {
      io.ChargeSequentialRead(last - last_charged);
      last_charged = last;
    }
    if (!IsLiveLocked(sid)) return true;  // deleted: skip, keep scanning
    if (!visitor(sid, set)) {
      stopped = true;
      return false;
    }
    return true;
  });
}

void SetStore::ScanAll(
    const std::function<bool(SetId, const ElementSet&)>& visitor) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  scans_->Increment();
  ScanAllLocked(io_, visitor);
}

void SetStore::ReadView::ScanAll(
    const std::function<bool(SetId, const ElementSet&)>& visitor) {
  std::shared_lock<std::shared_mutex> lock(store_->mu_);
  store_->scans_->Increment();
  store_->ScanAllLocked(io_, visitor);
}

double SetStore::AvgSetPages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (live_count_ == 0) return 0.0;
  const double bytes_per_set =
      static_cast<double>(live_bytes_) / static_cast<double>(live_.size());
  return bytes_per_set / static_cast<double>(kPageSize);
}

namespace {
constexpr std::string_view kSetStoreMagic = "SSRSTORE";
constexpr std::uint32_t kSetStoreVersion = 2;
}  // namespace

Status SetStore::SaveTo(std::ostream& out) const {
  // Store-level snapshot (meta + live index), then the heap file's own
  // snapshot. Two framed snapshots back to back: each is independently
  // checksummed and footer-pinned, and both read back sequentially.
  std::shared_lock<std::shared_mutex> lock(mu_);
  SnapshotWriter snapshot(out, kSetStoreMagic, kSetStoreVersion);

  BinaryWriter& meta = snapshot.BeginSection("meta");
  meta.WriteU32(static_cast<SetId>(live_.size()));
  meta.WriteU64(live_bytes_);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  // Live sids, ascending (locators are re-derivable from the heap's record
  // directory but are stored for integrity checking).
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;
  for (SetId sid = 0; sid < live_.size(); ++sid) {
    if (!live_[sid]) continue;
    live.push_back(sid);
    locators.push_back(file_.locator(sid));
  }
  BinaryWriter& live_sec = snapshot.BeginSection("live");
  live_sec.WriteVector(live);
  WriteLocators(live_sec, locators);
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  SSR_RETURN_IF_ERROR(snapshot.Finish());
  return file_.SaveTo(out);
}

Result<SetStore> SetStore::Load(std::istream& in, SetStoreOptions options,
                                const SnapshotLoadOptions& load_options) {
  SnapshotReader snapshot(in);
  std::uint32_t version = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadHeader(kSetStoreMagic, &version));
  if (version != kSetStoreVersion) {
    return Status::NotSupported("unknown store version");
  }

  // The store-level sections are small and irreplaceable: strict always.
  SetStore store(options);
  std::string payload;
  SetId next_sid = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("meta", &payload));
  {
    std::istringstream meta_in(payload);
    BinaryReader meta(meta_in);
    SSR_RETURN_IF_ERROR(meta.ReadU32(&next_sid));
    SSR_RETURN_IF_ERROR(meta.ReadU64(&store.live_bytes_));
  }
  std::vector<SetId> live;
  std::vector<RecordLocator> locators;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("live", &payload));
  {
    std::istringstream live_in(payload);
    BinaryReader live_reader(live_in);
    SSR_RETURN_IF_ERROR(live_reader.ReadVector(&live));
    SSR_RETURN_IF_ERROR(ReadLocators(live_reader, &locators));
  }
  if (live.size() != locators.size()) {
    return Status::Corruption("live/locator size mismatch");
  }
  SSR_RETURN_IF_ERROR(snapshot.VerifyFooter());

  RecoveryReport heap_report;
  SnapshotLoadOptions heap_options = load_options;
  heap_options.report = &heap_report;
  auto file = HeapFile::LoadFrom(in, heap_options);
  if (!file.ok()) return file.status();
  store.file_ = std::move(file).value();

  // The k-th heap record holds sid k: the heap's record directory must
  // cover exactly the allocated sids and agree with every saved locator.
  if (store.file_.num_records() != next_sid) {
    return Status::Corruption("heap record count differs from next_sid");
  }
  store.live_.assign(next_sid, false);
  std::size_t live_dropped = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (live[i] >= next_sid) {
      return Status::Corruption("live sid beyond next_sid");
    }
    if (i > 0 && live[i] <= live[i - 1]) {
      return Status::Corruption("live sids repeat or are out of order");
    }
    if (locators[i] != store.file_.locator(live[i])) {
      return Status::Corruption("live locator differs from the heap's");
    }
    if (heap_report.salvaged &&
        !store.file_.Read(locators[i], nullptr, nullptr).ok()) {
      // The record's page(s) were quarantined: leave it dead so the store
      // never serves a silently wrong answer for this sid.
      ++live_dropped;
      continue;
    }
    store.live_[live[i]] = true;
    ++store.live_count_;
  }

  if (heap_report.salvaged) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    const std::string& scope = store.options_.metrics_scope;
    registry.GetCounter("ssr_recovery_salvage_loads_total", scope)
        ->Increment();
    registry.GetCounter("ssr_recovery_pages_quarantined_total", scope)
        ->Add(heap_report.pages_quarantined);
    registry.GetCounter("ssr_recovery_records_quarantined_total", scope)
        ->Add(live_dropped);
  }
  if (load_options.report != nullptr) {
    heap_report.records_quarantined = live_dropped;
    load_options.report->MergeFrom(heap_report);
  }

  store.live_sets_->Set(static_cast<double>(store.live_count_));
  store.heap_pages_->Set(static_cast<double>(store.file_.num_pages()));
  return store;
}

void SetStore::ResetIoAccounting() {
  std::unique_lock<std::shared_mutex> lock(mu_);
  pool_.Clear();
  pool_.ResetStats();
  io_.Reset();
}

}  // namespace ssr
