#include "core/set_similarity_index.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <sstream>

#include "exec/thread_pool.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "obs/workload_observer.h"
#include "storage/wal.h"
#include "util/hash.h"
#include "util/serialize.h"
#include "util/set_ops.h"
#include "util/stopwatch.h"

namespace ssr {

namespace {

std::vector<SetId> SortedDifference(const std::vector<SetId>& a,
                                    const std::vector<SetId>& b) {
  std::vector<SetId> out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

std::vector<SetId> SortedUnion(const std::vector<SetId>& a,
                               const std::vector<SetId>& b) {
  std::vector<SetId> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Tolerance of the [σ1, σ2] accept test. The size window drops a set only
// when its size ratio is below σ1 − kEps, and Jaccard never exceeds the size
// ratio, so the window never drops a set the accept test would keep.
constexpr double kEps = 1e-12;

// A set size as the size window sees it, stored sizes and the query's
// alike. Saturating: clamping both sizes of a pair to one bound only raises
// their ratio, so it never makes the window drop a set.
std::uint32_t SizeSlot(std::size_t size) {
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(size, std::numeric_limits<std::uint32_t>::max()));
}

IndexOptions ResolveIndexMetricsScope(IndexOptions options) {
  if (options.metrics_scope.empty()) {
    options.metrics_scope = obs::MetricsRegistry::Default().NewScope("index");
  }
  return options;
}

}  // namespace

const char* QueryPlanKindName(QueryPlanKind kind) {
  switch (kind) {
    case QueryPlanKind::kDfiPair:
      return "dfi_pair";
    case QueryPlanKind::kSfiPair:
      return "sfi_pair";
    case QueryPlanKind::kMixed:
      return "mixed";
    case QueryPlanKind::kFullCollection:
      return "full_collection";
  }
  return "unknown";
}

Result<SetSimilarityIndex> SetSimilarityIndex::Build(
    SetStore& store, const IndexLayout& layout, const IndexOptions& options) {
  SSR_RETURN_IF_ERROR(layout.Validate());
  if (layout.points.empty()) {
    return Status::InvalidArgument("layout must have at least one FI");
  }
  auto embedding = Embedding::Create(options.embedding);
  if (!embedding.ok()) return embedding.status();
  SetSimilarityIndex index(store, layout, options,
                           std::move(embedding).value());
  SSR_RETURN_IF_ERROR(index.BuildFilterIndices());
  // Preprocessing I/O (the full-collection scan) must not pollute the
  // per-query measurements.
  store.ResetIoAccounting();
  return index;
}

SetSimilarityIndex::SetSimilarityIndex(SetStore& store, IndexLayout layout,
                                       IndexOptions options,
                                       Embedding embedding)
    : store_(&store),
      layout_(std::move(layout)),
      options_(ResolveIndexMetricsScope(std::move(options))),
      embedding_(std::make_unique<Embedding>(std::move(embedding))) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string& scope = options_.metrics_scope;
  queries_ = registry.GetCounter("ssr_index_queries_total", scope);
  bucket_accesses_ =
      registry.GetCounter("ssr_index_bucket_accesses_total", scope);
  bucket_pages_ = registry.GetCounter("ssr_index_bucket_pages_total", scope);
  sids_scanned_ = registry.GetCounter("ssr_index_sids_scanned_total", scope);
  sets_fetched_ = registry.GetCounter("ssr_index_sets_fetched_total", scope);
  size_pruned_ = registry.GetCounter("ssr_index_size_pruned_total", scope);
  results_ = registry.GetCounter("ssr_index_results_total", scope);
  probe_failures_ =
      registry.GetCounter("ssr_index_probe_failures_total", scope);
  fetch_failures_ =
      registry.GetCounter("ssr_index_fetch_failures_total", scope);
  degraded_queries_ = registry.GetCounter("ssr_degraded_queries_total", scope);
  seqscan_fallbacks_ =
      registry.GetCounter("ssr_index_seqscan_fallbacks_total", scope);
  live_sets_ = registry.GetGauge("ssr_index_live_sets", scope);
  candidates_hist_ = registry.GetHistogram(
      "ssr_index_candidates_per_query", scope,
      obs::ExponentialBounds(1.0, 4.0, 10));
  latency_hist_ = registry.GetHistogram("ssr_index_query_latency_micros",
                                        scope, obs::LatencyBoundsMicros());
}

void SetSimilarityIndex::FreeSignatures() {
  // Singly-owned teardown (destructor / move-assignment target): no reader
  // can hold a pin into this index anymore, so the live signatures are
  // freed inline. Versions retired earlier through the epoch manager are
  // its responsibility, not ours.
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  for (std::size_t sid = 0; sid < cap; ++sid) {
    delete signatures_.Get(sid);
  }
  capacity_.store(0, std::memory_order_relaxed);
  num_live_.store(0, std::memory_order_relaxed);
}

SetSimilarityIndex::~SetSimilarityIndex() { FreeSignatures(); }

SetSimilarityIndex::SetSimilarityIndex(SetSimilarityIndex&& other) noexcept
    : store_(other.store_),
      layout_(std::move(other.layout_)),
      options_(std::move(other.options_)),
      embedding_(std::move(other.embedding_)),
      fis_(std::move(other.fis_)),
      signatures_(std::move(other.signatures_)),
      set_sizes_(std::move(other.set_sizes_)),
      capacity_(other.capacity_.load(std::memory_order_relaxed)),
      num_live_(other.num_live_.load(std::memory_order_relaxed)),
      epoch_manager_(other.epoch_manager_),
      build_stats_(other.build_stats_),
      workload_observer_(other.workload_observer_),
      wal_(other.wal_),
      queries_(other.queries_),
      bucket_accesses_(other.bucket_accesses_),
      bucket_pages_(other.bucket_pages_),
      sids_scanned_(other.sids_scanned_),
      sets_fetched_(other.sets_fetched_),
      size_pruned_(other.size_pruned_),
      results_(other.results_),
      probe_failures_(other.probe_failures_),
      fetch_failures_(other.fetch_failures_),
      degraded_queries_(other.degraded_queries_),
      seqscan_fallbacks_(other.seqscan_fallbacks_),
      live_sets_(other.live_sets_),
      candidates_hist_(other.candidates_hist_),
      latency_hist_(other.latency_hist_) {
  other.capacity_.store(0, std::memory_order_relaxed);
  other.num_live_.store(0, std::memory_order_relaxed);
}

SetSimilarityIndex& SetSimilarityIndex::operator=(
    SetSimilarityIndex&& other) noexcept {
  if (this != &other) {
    FreeSignatures();
    store_ = other.store_;
    layout_ = std::move(other.layout_);
    options_ = std::move(other.options_);
    embedding_ = std::move(other.embedding_);
    fis_ = std::move(other.fis_);
    signatures_ = std::move(other.signatures_);
    set_sizes_ = std::move(other.set_sizes_);
    capacity_.store(other.capacity_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    num_live_.store(other.num_live_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    epoch_manager_ = other.epoch_manager_;
    build_stats_ = other.build_stats_;
    workload_observer_ = other.workload_observer_;
    wal_ = other.wal_;
    queries_ = other.queries_;
    bucket_accesses_ = other.bucket_accesses_;
    bucket_pages_ = other.bucket_pages_;
    sids_scanned_ = other.sids_scanned_;
    sets_fetched_ = other.sets_fetched_;
    size_pruned_ = other.size_pruned_;
    results_ = other.results_;
    probe_failures_ = other.probe_failures_;
    fetch_failures_ = other.fetch_failures_;
    degraded_queries_ = other.degraded_queries_;
    seqscan_fallbacks_ = other.seqscan_fallbacks_;
    live_sets_ = other.live_sets_;
    candidates_hist_ = other.candidates_hist_;
    latency_hist_ = other.latency_hist_;
    other.capacity_.store(0, std::memory_order_relaxed);
    other.num_live_.store(0, std::memory_order_relaxed);
  }
  return *this;
}

void SetSimilarityIndex::EnableConcurrentWrites(exec::EpochManager* manager) {
  if (manager == nullptr) manager = &exec::EpochManager::Default();
  epoch_manager_ = manager;
  signatures_.SetEpochManager(manager);
  set_sizes_.SetEpochManager(manager);
  for (auto& fi : fis_) {
    if (fi.sfi != nullptr) {
      fi.sfi->SetEpochManager(manager);
    } else {
      fi.dfi->SetEpochManager(manager);
    }
  }
}

Status SetSimilarityIndex::BuildFilterIndices() {
  Stopwatch build_watch;
  // The pool starts first: its workers come up while this thread creates
  // the tables and scans the store.
  exec::ThreadPool pool(exec::ResolveThreadCount(options_.num_threads));
  SSR_RETURN_IF_ERROR(CreateFilterIndices());

  // Phase 0 (serial): one sequential scan collects every live set in file
  // order — the I/O is inherently serial, and it fixes the sid order the
  // sharded phases below must reproduce.
  std::vector<SetId> sids;
  std::vector<ElementSet> sets;
  Status status;
  store_->ScanAll([&](SetId sid, const ElementSet& set) {
    if (!IsNormalizedSet(set)) {
      status = Status::InvalidArgument("set must be sorted and duplicate-free");
      return false;
    }
    sids.push_back(sid);
    sets.push_back(set);
    return true;
  });
  SSR_RETURN_IF_ERROR(status);
  const std::size_t n = sids.size();

  build_stats_ = BuildStats{};
  build_stats_.threads = pool.size();
  build_stats_.sets_indexed = n;

  SetId max_sid = 0;
  for (SetId sid : sids) max_sid = std::max(max_sid, sid);
  if (n > 0) {
    // Pre-grow the slot arrays serially so the parallel sign phase below
    // only stores into disjoint, already-allocated slots.
    signatures_.EnsureCapacity(max_sid + 1);
    set_sizes_.EnsureCapacity(max_sid + 1);
    if (max_sid + 1 > capacity_.load(std::memory_order_relaxed)) {
      capacity_.store(max_sid + 1, std::memory_order_relaxed);
    }
  }

  // Phase 1 (parallel): sign every set, in blocks of 8 sets, small enough
  // that the static round-robin schedule leaves no worker more than one
  // block above its share. Each worker owns whole blocks and writes
  // disjoint sid-indexed slots; Sign is const and reentrant, and each
  // signature depends only on its own set, so the result is bit-identical
  // to the serial build for any thread count.
  double parallel_wall = 0.0;
  {
    obs::TraceSpan span("build/sign");
    span.Tag("sets", static_cast<std::uint64_t>(n));
    constexpr std::size_t kSignBlock = 8;
    const std::size_t blocks = (n + kSignBlock - 1) / kSignBlock;
    pool.ParallelFor(
        0, blocks, /*grain=*/1,
        [&](std::size_t blk, std::size_t /*worker*/) {
          const std::size_t lo = blk * kSignBlock;
          const std::size_t hi = std::min(n, lo + kSignBlock);
          for (std::size_t i = lo; i < hi; ++i) {
            set_sizes_.Set(sids[i], SizeSlot(sets[i].size()));
            signatures_.Set(sids[i], new Signature(embedding_->Sign(sets[i])));
          }
        });
    const exec::JobStats& job = pool.last_job_stats();
    build_stats_.sign_cpu_seconds = job.TotalCpuSeconds();
    build_stats_.sign_makespan_seconds = job.MakespanSeconds();
    parallel_wall += job.wall_seconds;
  }

  // Phase 2 (parallel): insert into the hash tables, sharded by table. A
  // worker owns whole (fi, table) pairs and walks sids in ascending file
  // order — the same per-table insertion order as the serial build — so
  // bucket contents are bit-identical and no insert path needs a lock.
  struct TableRef {
    std::size_t fi;
    std::size_t table;
  };
  std::vector<TableRef> tables;
  for (std::size_t f = 0; f < fis_.size(); ++f) {
    const std::size_t l =
        fis_[f].sfi != nullptr ? fis_[f].sfi->l() : fis_[f].dfi->l();
    for (std::size_t t = 0; t < l; ++t) tables.push_back({f, t});
  }
  // Resolve each sid's signature pointer once, not per (table, sid) pair.
  std::vector<const Signature*> sig_of(n);
  for (std::size_t i = 0; i < n; ++i) sig_of[i] = signatures_.Get(sids[i]);
  {
    obs::TraceSpan span("build/insert");
    span.Tag("tables", static_cast<std::uint64_t>(tables.size()));
    pool.ParallelFor(
        0, tables.size(), /*grain=*/1,
        [&](std::size_t ti, std::size_t /*worker*/) {
          const TableRef ref = tables[ti];
          BuiltFi& fi = fis_[ref.fi];
          if (fi.sfi != nullptr) {
            for (std::size_t i = 0; i < n; ++i) {
              fi.sfi->InsertIntoTable(ref.table, sids[i], *sig_of[i]);
            }
          } else {
            for (std::size_t i = 0; i < n; ++i) {
              fi.dfi->InsertIntoTable(ref.table, sids[i], *sig_of[i]);
            }
          }
        });
    const exec::JobStats& job = pool.last_job_stats();
    build_stats_.insert_cpu_seconds = job.TotalCpuSeconds();
    build_stats_.insert_makespan_seconds = job.MakespanSeconds();
    parallel_wall += job.wall_seconds;
  }

  // Phase 3 (serial): size bookkeeping.
  for (auto& fi : fis_) {
    if (fi.sfi != nullptr) {
      fi.sfi->NoteBulkEntries(n);
    } else {
      fi.dfi->NoteBulkEntries(n);
    }
  }
  // Liveness is the non-null signature slot, already published in phase 1.
  num_live_.fetch_add(n, std::memory_order_relaxed);
  live_sets_->Set(
      static_cast<double>(num_live_.load(std::memory_order_relaxed)));

  build_stats_.wall_seconds = build_watch.ElapsedSeconds();
  // Modeled build time: the serial portions at wall-clock cost plus each
  // parallel phase at its busiest worker's CPU cost. Equals wall_seconds
  // when the machine really runs `threads` workers concurrently.
  build_stats_.makespan_seconds =
      (build_stats_.wall_seconds - parallel_wall) +
      build_stats_.sign_makespan_seconds +
      build_stats_.insert_makespan_seconds;
  return Status::OK();
}

Status SetSimilarityIndex::CreateFilterIndices() {
  const std::size_t expected = store_->size();
  std::size_t buckets = options_.buckets_per_table;
  if (buckets == 0) buckets = expected < 16 ? 16 : expected;

  for (std::size_t i = 0; i < layout_.points.size(); ++i) {
    const FilterPoint& p = layout_.points[i];
    SfiParams params;
    params.l = p.tables;
    params.r = p.r;
    params.num_buckets = buckets;
    params.seed = HashCombine(options_.seed, i * 0x9e37 + 1);
    BuiltFi built;
    built.point = p;
    // Theorem 1 converts the set-similarity location to Hamming similarity.
    const double s_hamming =
        embedding_->SetToHammingSimilarity(p.similarity);
    if (p.kind == FilterKind::kSimilarity) {
      params.s_star = s_hamming;
      auto sfi = SimilarityFilterIndex::Create(*embedding_, params, expected);
      if (!sfi.ok()) return sfi.status();
      built.sfi = std::make_unique<SimilarityFilterIndex>(
          std::move(sfi).value());
    } else {
      params.s_star = s_hamming;
      auto dfi =
          DissimilarityFilterIndex::Create(*embedding_, params, expected);
      if (!dfi.ok()) return dfi.status();
      built.dfi = std::make_unique<DissimilarityFilterIndex>(
          std::move(dfi).value());
    }
    fis_.push_back(std::move(built));
  }
  return Status::OK();
}

Status SetSimilarityIndex::Insert(SetId sid, const ElementSet& set) {
  if (!IsNormalizedSet(set)) {
    return Status::InvalidArgument("set must be sorted and duplicate-free");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (signatures_.Get(sid) != nullptr) {
    return Status::AlreadyExists("sid already indexed");
  }
  // Write-ahead: the mutation reaches the log before any in-memory state
  // changes, and a failed append fails the whole Insert with nothing
  // applied — memory is never ahead of the log.
  if (wal_ != nullptr) {
    SSR_RETURN_IF_ERROR(wal_->AppendInsert(sid, set).status());
  }
  // The size goes in before the sid enters any table (InsertSignatureLocked
  // publishes the tables): a reader that finds the sid sees its size.
  set_sizes_.Set(sid, SizeSlot(set.size()));
  return InsertSignatureLocked(sid, embedding_->Sign(set));
}

Status SetSimilarityIndex::InsertSignature(SetId sid, Signature sig) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  return InsertSignatureLocked(sid, std::move(sig));
}

Status SetSimilarityIndex::InsertSignatureLocked(SetId sid, Signature sig) {
  if (signatures_.Get(sid) != nullptr) {
    return Status::AlreadyExists("sid already indexed");
  }
  if (sig.size() != embedding_->hasher().params().num_hashes) {
    return Status::InvalidArgument("signature dimension mismatch");
  }
  auto* owned = new Signature(std::move(sig));
  // Tables first, then the signature slot: once the slot is non-null the
  // sid is live, and every table already holds it — a reader that sees it
  // live can probe it, and one that saw a table entry early just verifies
  // an extra candidate against the store.
  for (auto& fi : fis_) {
    if (fi.sfi != nullptr) {
      fi.sfi->Insert(sid, *owned);
    } else {
      fi.dfi->Insert(sid, *owned);
    }
  }
  signatures_.Set(sid, owned);
  if (sid + std::size_t{1} > capacity_.load(std::memory_order_relaxed)) {
    capacity_.store(sid + std::size_t{1}, std::memory_order_relaxed);
  }
  num_live_.fetch_add(1, std::memory_order_relaxed);
  live_sets_->Set(
      static_cast<double>(num_live_.load(std::memory_order_relaxed)));
  return Status::OK();
}

Status SetSimilarityIndex::Erase(SetId sid) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const Signature* sig = signatures_.Get(sid);
  if (sig == nullptr) {
    return Status::NotFound("sid not indexed");
  }
  if (wal_ != nullptr) {
    SSR_RETURN_IF_ERROR(wal_->AppendErase(sid).status());
  }
  for (auto& fi : fis_) {
    if (fi.sfi != nullptr) {
      fi.sfi->Erase(sid, *sig);
    } else {
      fi.dfi->Erase(sid, *sig);
    }
  }
  signatures_.Set(sid, nullptr);
  // A pinned reader may still dereference the signature it loaded before
  // the swap; defer the free to its retire epoch.
  if (epoch_manager_ != nullptr) {
    epoch_manager_->Retire([sig] { delete sig; });
  } else {
    delete sig;
  }
  num_live_.fetch_sub(1, std::memory_order_relaxed);
  live_sets_->Set(
      static_cast<double>(num_live_.load(std::memory_order_relaxed)));
  return Status::OK();
}

std::optional<Signature> SetSimilarityIndex::signature(SetId sid) const {
  std::optional<exec::EpochGuard> guard;
  if (epoch_manager_ != nullptr) guard.emplace(*epoch_manager_);
  const Signature* sig = signatures_.Get(sid);
  if (sig == nullptr) return std::nullopt;
  return *sig;
}

bool SetSimilarityIndex::HasDfi() const {
  for (const auto& fi : fis_) {
    if (fi.point.kind == FilterKind::kDissimilarity) return true;
  }
  return false;
}

std::vector<SetId> SetSimilarityIndex::LiveSids() const {
  std::vector<SetId> out;
  out.reserve(num_live_.load(std::memory_order_relaxed));
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  for (std::size_t sid = 0; sid < cap; ++sid) {
    if (signatures_.Get(sid) != nullptr) {
      out.push_back(static_cast<SetId>(sid));
    }
  }
  return out;
}

Status SetSimilarityIndex::ProbeFi(std::size_t fi_idx, const Signature& query,
                                   bool* partial, QueryStats* stats,
                                   IoCostModel& io,
                                   std::vector<SetId>* out) const {
  const BuiltFi& fi = fis_[fi_idx];
  obs::TraceSpan span("probe_fi");
  span.Tag("fi", static_cast<std::uint64_t>(fi_idx));
  span.Tag("kind", fi.sfi != nullptr ? "sfi" : "dfi");
  span.Tag("point", fi.point.similarity);
  *partial = false;
  SfiProbeStats probe;
  fault::RetryStats retry_stats;
  Status status =
      fault::RetryWithPolicy(options_.probe_retry, [&]() -> Status {
        SSR_RETURN_IF_ERROR(
            fault::FaultInjector::Default().CheckStatus("index/probe_fi"));
        probe = SfiProbeStats{};
        if (fi.sfi != nullptr) {
          fi.sfi->SimVectorInto(query, /*complemented=*/false, &probe, out);
        } else {
          fi.dfi->DissimVectorInto(query, &probe, out);
        }
        return Status::OK();
      }, &retry_stats);
  stats->retry_attempts += retry_stats.retries;
  stats->retry_backoff_micros += retry_stats.backoff_micros;
  if (!status.ok()) {
    stats->probe_failures += 1;
    probe_failures_->Increment();
    stats->fi_probes.push_back(
        {static_cast<std::uint32_t>(fi_idx), 0, 0, /*failed=*/true});
    span.Tag("failed", std::uint64_t{1});
    return status;
  }
  // Accumulate into the query's own stats and mirror the same amounts into
  // the process-wide instruments (the two stay consistent by construction;
  // per-query stats never see a concurrent query's probes).
  stats->bucket_accesses += probe.bucket_accesses;
  stats->bucket_pages += probe.bucket_pages;
  stats->sids_scanned += probe.sids_scanned;
  bucket_accesses_->Add(probe.bucket_accesses);
  bucket_pages_->Add(probe.bucket_pages);
  sids_scanned_->Add(probe.sids_scanned);
  if (probe.tables_failed > 0) {
    *partial = true;
    stats->probe_failures += 1;
    probe_failures_->Increment();
    span.Tag("tables_failed",
             static_cast<std::uint64_t>(probe.tables_failed));
  }
  stats->fi_probes.push_back({static_cast<std::uint32_t>(fi_idx),
                              probe.bucket_accesses, out->size(),
                              /*failed=*/probe.tables_failed > 0});
  span.Tag("sids", static_cast<std::uint64_t>(out->size()));
  if (options_.charge_bucket_io) {
    io.ChargeRandomRead(probe.bucket_pages);
  }
  return status;
}

std::vector<SetId> SetSimilarityIndex::ComputeCandidates(
    const Signature& query, std::size_t query_size, double sigma1,
    double sigma2, QueryStats* stats, bool* additive_loss, IoCostModel& io,
    std::vector<SetId>* scratch) const {
  std::vector<SetId> candidates = ProbeCandidates(
      query, sigma1, sigma2, stats, additive_loss, io, scratch);
  if (sigma1 <= kEps) return candidates;  // the window would drop nothing
  // The σ1 size window: Jaccard(s, q) <= min(|s|,|q|) / max(|s|,|q|), so a
  // set whose size ratio is below σ1 − kEps cannot pass verification. It is
  // dropped here, before any fetch. Two empty sets have Jaccard 1: kept.
  const double q = static_cast<double>(SizeSlot(query_size));
  std::size_t kept = 0;
  for (SetId sid : candidates) {
    const double s = static_cast<double>(set_sizes_.Get(sid));
    const double hi = std::max(s, q);
    if (hi == 0.0 || std::min(s, q) / hi >= sigma1 - kEps) {
      candidates[kept++] = sid;
    }
  }
  const std::size_t pruned = candidates.size() - kept;
  candidates.resize(kept);
  stats->size_pruned += pruned;
  size_pruned_->Add(pruned);
  return candidates;
}

std::vector<SetId> SetSimilarityIndex::ProbeCandidates(
    const Signature& query, double sigma1, double sigma2, QueryStats* stats,
    bool* additive_loss, IoCostModel& io,
    std::vector<SetId>* scratch) const {
  // All probes share one scratch vector (caller-provided when available):
  // the union is built in place with warm capacity and copied out once per
  // probe, eliminating the per-table growth reallocations.
  std::vector<SetId> local_scratch;
  std::vector<SetId>* probe_out =
      scratch != nullptr ? scratch : &local_scratch;
  // A failed or partial *additive* probe can lose true candidates: report
  // it through *additive_loss and contribute a best-effort (possibly
  // empty) set. A failed *subtractive* probe subtracts nothing — the
  // result stays a sound superset and verification still yields exact
  // answers. Both paths tag the query degraded.
  const auto additive = [&](std::size_t idx) -> std::vector<SetId> {
    bool partial = false;
    Status s = ProbeFi(idx, query, &partial, stats, io, probe_out);
    if (!s.ok() || partial) {
      stats->degraded = true;
      *additive_loss = true;
      if (!s.ok()) return {};
    }
    return *probe_out;
  };
  const auto subtractive = [&](std::size_t idx) -> std::vector<SetId> {
    bool partial = false;
    Status s = ProbeFi(idx, query, &partial, stats, io, probe_out);
    if (!s.ok() || partial) {
      stats->degraded = true;
      if (!s.ok()) return {};
    }
    return *probe_out;
  };

  // Virtual enclosing-point selection over [0 | layout points | 1].
  // lo = highest point <= σ1 (virtual 0 if none);
  // up = lowest point >= σ2 (virtual 1 if none).
  constexpr std::size_t kVirtual = static_cast<std::size_t>(-1);
  std::size_t lo_idx = kVirtual, up_idx = kVirtual;
  for (std::size_t i = 0; i < fis_.size(); ++i) {
    if (fis_[i].point.similarity <= sigma1) lo_idx = i;
  }
  for (std::size_t i = fis_.size(); i-- > 0;) {
    if (fis_[i].point.similarity >= sigma2) up_idx = i;
  }
  // If both land on the same point (σ1 <= p <= σ2 with one point in range),
  // widen lo downward so the enclosure is proper.
  if (lo_idx != kVirtual && lo_idx == up_idx) {
    lo_idx = lo_idx == 0 ? kVirtual : lo_idx - 1;
  }

  stats->lo_point = lo_idx == kVirtual ? 0.0 : fis_[lo_idx].point.similarity;
  stats->up_point = up_idx == kVirtual ? 1.0 : fis_[up_idx].point.similarity;

  const bool lo_virtual = lo_idx == kVirtual;
  const bool up_virtual = up_idx == kVirtual;

  if (lo_virtual && up_virtual) {
    stats->plan = QueryPlanKind::kFullCollection;
    return LiveSids();
  }

  const auto kind_of = [&](std::size_t idx) { return fis_[idx].point.kind; };

  // Case 1: both enclosing points are DFIs (or lo is virtual 0, an empty
  // DissimVector): A = Dissim(up) \ Dissim(lo).
  if (!up_virtual && kind_of(up_idx) == FilterKind::kDissimilarity) {
    stats->plan = QueryPlanKind::kDfiPair;
    std::vector<SetId> up_set = additive(up_idx);
    if (lo_virtual) return up_set;
    assert(kind_of(lo_idx) == FilterKind::kDissimilarity);
    std::vector<SetId> lo_set = subtractive(lo_idx);
    return SortedDifference(up_set, lo_set);
  }

  // Case 2: both enclosing points are SFIs (or up is virtual 1, an empty
  // SimVector): A = Sim(lo) \ Sim(up). A virtual-0 lo with an SFI-side up
  // degenerates to "all live sids minus Sim(up)" — the expensive plan the
  // paper's first-attempt scheme suffers from; the optimizer's layouts
  // avoid it by covering [0, δ] with DFIs.
  const bool lo_is_sfi =
      !lo_virtual && kind_of(lo_idx) == FilterKind::kSimilarity;
  const bool lo_dfi_side =
      !lo_virtual && kind_of(lo_idx) == FilterKind::kDissimilarity;
  if (lo_is_sfi || (lo_virtual && !up_virtual &&
                    kind_of(up_idx) == FilterKind::kSimilarity &&
                    !HasDfi())) {
    stats->plan = QueryPlanKind::kSfiPair;
    std::vector<SetId> lo_set = lo_is_sfi ? additive(lo_idx) : LiveSids();
    if (up_virtual) return lo_set;
    std::vector<SetId> up_set = subtractive(up_idx);
    return SortedDifference(lo_set, up_set);
  }

  // Case 3: lo on the DFI side (a real DFI or virtual 0 with DFIs present),
  // up on the SFI side (a real SFI or virtual 1). Uses the two FIs nearest
  // δ: A = (Dissim(r_m) \ Dissim(lo)) ∪ (Sim(t_m) \ Sim(up)).
  stats->plan = QueryPlanKind::kMixed;
  std::size_t dfi_mid = kVirtual, sfi_mid = kVirtual;
  for (std::size_t i = 0; i < fis_.size(); ++i) {
    if (fis_[i].point.kind == FilterKind::kDissimilarity) dfi_mid = i;
  }
  for (std::size_t i = fis_.size(); i-- > 0;) {
    if (fis_[i].point.kind == FilterKind::kSimilarity) sfi_mid = i;
  }

  if (sfi_mid == kVirtual) {
    // DFI-only layout with the range extending above every DFI point: the
    // only sound superset is everything not excluded below lo.
    std::vector<SetId> all = LiveSids();
    if (lo_dfi_side) {
      return SortedDifference(all, subtractive(lo_idx));
    }
    return all;
  }

  std::vector<SetId> left;
  if (dfi_mid != kVirtual) {
    left = additive(dfi_mid);
    if (lo_dfi_side && lo_idx != dfi_mid) {
      left = SortedDifference(left, subtractive(lo_idx));
    }
  }
  std::vector<SetId> right;
  if (sfi_mid != kVirtual) {
    right = additive(sfi_mid);
    if (!up_virtual && up_idx != sfi_mid &&
        kind_of(up_idx) == FilterKind::kSimilarity) {
      right = SortedDifference(right, subtractive(up_idx));
    }
  }
  return SortedUnion(left, right);
}

namespace {
constexpr std::string_view kIndexMagic = "SSRINDEX";
// v3 appended the minhash family byte to the "options" section; v2
// snapshots predate signature engine v2 and load as the classic family
// (the only one that existed when they were written).
constexpr std::uint32_t kIndexVersion = 3;
constexpr std::uint32_t kIndexVersionPreFamily = 2;
}  // namespace

Status SetSimilarityIndex::SaveTo(std::ostream& out) const {
  // Pin the signature versions being serialized against concurrent retires
  // (callers normally quiesce writers first for a point-in-time snapshot).
  std::optional<exec::EpochGuard> epoch_guard;
  if (epoch_manager_ != nullptr) epoch_guard.emplace(*epoch_manager_);
  SnapshotWriter snapshot(out, kIndexMagic, kIndexVersion);

  BinaryWriter& opts = snapshot.BeginSection("options");
  opts.WriteU64(options_.embedding.minhash.num_hashes);
  opts.WriteU32(options_.embedding.minhash.value_bits);
  opts.WriteU64(options_.embedding.minhash.seed);
  opts.WriteU8(static_cast<std::uint8_t>(options_.embedding.code_kind));
  opts.WriteU64(options_.buckets_per_table);
  opts.WriteU64(options_.seed);
  opts.WriteBool(options_.charge_bucket_io);
  // v3: the signing family. Appended last so the field order of v2
  // readers' fields is untouched.
  opts.WriteU8(static_cast<std::uint8_t>(options_.embedding.minhash.family));
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  BinaryWriter& lay = snapshot.BeginSection("layout");
  lay.WriteDouble(layout_.delta);
  lay.WriteU64(layout_.points.size());
  for (const FilterPoint& p : layout_.points) {
    lay.WriteDouble(p.similarity);
    lay.WriteU8(static_cast<std::uint8_t>(p.kind));
    lay.WriteU64(p.tables);
    lay.WriteU64(p.r);
  }
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  // Signatures of live sids. Last and largest: damage here is recoverable
  // (signatures re-embed from the store), so keep it after the sections
  // that are not.
  BinaryWriter& sigs = snapshot.BeginSection("signatures");
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  sigs.WriteU64(cap);
  sigs.WriteU64(num_live_.load(std::memory_order_relaxed));
  for (std::size_t sid = 0; sid < cap; ++sid) {
    const Signature* sig = signatures_.Get(sid);
    if (sig == nullptr) continue;
    sigs.WriteU32(static_cast<std::uint32_t>(sid));
    sigs.WriteVector(sig->values());
  }
  SSR_RETURN_IF_ERROR(snapshot.EndSection());

  return snapshot.Finish();
}

Result<SetSimilarityIndex> SetSimilarityIndex::Load(
    SetStore& store, std::istream& in,
    const SnapshotLoadOptions& load_options) {
  SnapshotReader snapshot(in);
  std::uint32_t version = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadHeader(kIndexMagic, &version));
  if (version != kIndexVersion && version != kIndexVersionPreFamily) {
    return Status::NotSupported("unknown index version");
  }

  std::string payload;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("options", &payload));
  IndexOptions options;
  {
    std::istringstream opts_in(payload);
    BinaryReader opts(opts_in);
    std::uint64_t num_hashes = 0;
    std::uint32_t value_bits = 0;
    std::uint8_t code_kind = 0;
    SSR_RETURN_IF_ERROR(opts.ReadU64(&num_hashes));
    SSR_RETURN_IF_ERROR(opts.ReadU32(&value_bits));
    SSR_RETURN_IF_ERROR(opts.ReadU64(&options.embedding.minhash.seed));
    SSR_RETURN_IF_ERROR(opts.ReadU8(&code_kind));
    SSR_RETURN_IF_ERROR(opts.ReadU64(&options.buckets_per_table));
    SSR_RETURN_IF_ERROR(opts.ReadU64(&options.seed));
    SSR_RETURN_IF_ERROR(opts.ReadBool(&options.charge_bucket_io));
    options.embedding.minhash.num_hashes =
        static_cast<std::size_t>(num_hashes);
    options.embedding.minhash.value_bits = value_bits;
    if (code_kind > static_cast<std::uint8_t>(CodeKind::kNaiveBinary)) {
      return Status::Corruption("unknown code kind");
    }
    options.embedding.code_kind = static_cast<CodeKind>(code_kind);
    if (version >= kIndexVersion) {
      // The family the store was signed under. An out-of-range byte in a
      // CRC-clean section is a snapshot from a newer engine, not damage:
      // refuse with NotSupported rather than probe under the wrong family.
      std::uint8_t family_byte = 0;
      SSR_RETURN_IF_ERROR(opts.ReadU8(&family_byte));
      auto family = MinHashFamilyFromByte(family_byte);
      if (!family.ok()) return family.status();
      options.embedding.minhash.family = family.value();
    } else {
      options.embedding.minhash.family = MinHashFamilyKind::kClassic;
    }
    // Every version's field list is exhaustive. Leftover payload means the
    // version field (which no CRC covers) was damaged into an older value
    // that would silently ignore trailing fields — the family byte, under
    // v3 -> v2 — and that is exactly the "probe under the wrong family"
    // outcome the format forbids.
    if (opts_in.peek() != std::istringstream::traits_type::eof()) {
      return Status::Corruption("options section has trailing bytes");
    }
  }

  SSR_RETURN_IF_ERROR(snapshot.ReadSection("layout", &payload));
  IndexLayout layout;
  {
    std::istringstream lay_in(payload);
    BinaryReader lay(lay_in);
    SSR_RETURN_IF_ERROR(lay.ReadDouble(&layout.delta));
    std::uint64_t num_points = 0;
    SSR_RETURN_IF_ERROR(lay.ReadU64(&num_points));
    if (num_points > 100000) return Status::Corruption("absurd point count");
    for (std::uint64_t i = 0; i < num_points; ++i) {
      FilterPoint p;
      std::uint8_t kind = 0;
      std::uint64_t tables = 0, r = 0;
      SSR_RETURN_IF_ERROR(lay.ReadDouble(&p.similarity));
      SSR_RETURN_IF_ERROR(lay.ReadU8(&kind));
      SSR_RETURN_IF_ERROR(lay.ReadU64(&tables));
      SSR_RETURN_IF_ERROR(lay.ReadU64(&r));
      p.kind =
          kind == 0 ? FilterKind::kSimilarity : FilterKind::kDissimilarity;
      p.tables = static_cast<std::size_t>(tables);
      p.r = static_cast<std::size_t>(r);
      layout.points.push_back(p);
    }
  }
  SSR_RETURN_IF_ERROR(layout.Validate());
  if (layout.points.empty()) {
    return Status::Corruption("persisted layout has no points");
  }

  auto embedding = Embedding::Create(options.embedding);
  if (!embedding.ok()) return embedding.status();
  SetSimilarityIndex index(store, std::move(layout), options,
                           std::move(embedding).value());
  SSR_RETURN_IF_ERROR(index.CreateFilterIndices());

  const Status sig_status = snapshot.ReadSection("signatures", &payload);
  const bool sigs_damaged = !sig_status.ok();
  if (sigs_damaged && !(load_options.salvage && (sig_status.IsDataLoss() ||
                                                 sig_status.IsCorruption()))) {
    return sig_status;
  }

  std::size_t rebuilt = 0;
  if (sigs_damaged) {
    // Recovery: the signatures are derived data — re-embed every surviving
    // record from the (possibly itself salvaged) store and rebuild the
    // hash tables from scratch.
    Status rebuild_status;
    store.ScanAll([&](SetId sid, const ElementSet& set) {
      Status s = index.Insert(sid, set);
      if (!s.ok()) {
        rebuild_status = s;
        return false;
      }
      ++rebuilt;
      return true;
    });
    SSR_RETURN_IF_ERROR(rebuild_status);
    store.ResetIoAccounting();  // the rebuild scan is not query I/O
  } else {
    // The size window's per-sid sizes are not in the snapshot: read them
    // from the store in one scan. A saved sid the scan does not see (not
    // live, or unreadable, which Build would not index at all) keeps size 0.
    store.ScanAll([&](SetId sid, const ElementSet& set) {
      index.set_sizes_.Set(sid, SizeSlot(set.size()));
      return true;
    });
    store.ResetIoAccounting();  // the size scan is not query I/O
    std::istringstream sigs_in(payload);
    BinaryReader sigs(sigs_in);
    std::uint64_t capacity = 0, live_count = 0;
    SSR_RETURN_IF_ERROR(sigs.ReadU64(&capacity));
    SSR_RETURN_IF_ERROR(sigs.ReadU64(&live_count));
    for (std::uint64_t i = 0; i < live_count; ++i) {
      std::uint32_t sid = 0;
      std::vector<std::uint16_t> values;
      SSR_RETURN_IF_ERROR(sigs.ReadU32(&sid));
      SSR_RETURN_IF_ERROR(sigs.ReadVector(&values));
      if (load_options.salvage && !store.Contains(sid)) {
        // The store's salvage dropped this record; indexing it would only
        // produce candidates that can never verify.
        continue;
      }
      SSR_RETURN_IF_ERROR(
          index.InsertSignature(sid, Signature(std::move(values))));
    }
    if (index.capacity_.load(std::memory_order_relaxed) < capacity) {
      // Restore the saved logical capacity even past the highest live sid:
      // it round-trips through SaveTo and keeps sid allocation consistent
      // across save/load cycles with trailing erased sids.
      index.signatures_.EnsureCapacity(static_cast<std::size_t>(capacity));
      index.capacity_.store(static_cast<std::size_t>(capacity),
                            std::memory_order_relaxed);
    }
  }

  const Status footer_status = snapshot.VerifyFooter();
  if (!footer_status.ok() && !load_options.salvage) return footer_status;

  if (load_options.report != nullptr) {
    RecoveryReport r;
    r.signatures_rebuilt = rebuilt;
    r.salvaged = sigs_damaged || !footer_status.ok();
    load_options.report->MergeFrom(r);
  }
  if (sigs_damaged) {
    obs::MetricsRegistry::Default()
        .GetCounter("ssr_recovery_signatures_rebuilt_total",
                    index.options_.metrics_scope)
        ->Add(rebuilt);
  }
  return index;
}

Status ValidateRangeQuery(const ElementSet& query, double sigma1,
                          double sigma2) {
  if (!(sigma1 >= 0.0 && sigma1 <= sigma2 && sigma2 <= 1.0)) {
    return Status::InvalidArgument("require 0 <= sigma1 <= sigma2 <= 1");
  }
  if (!IsNormalizedSet(query)) {
    return Status::InvalidArgument("query set must be sorted and unique");
  }
  return Status::OK();
}

Result<QueryResult> SetSimilarityIndex::QueryCandidates(
    const ElementSet& query, double sigma1, double sigma2) const {
  return QueryImpl(query, sigma1, sigma2, /*view=*/nullptr,
                   /*scratch=*/nullptr, /*signature=*/nullptr,
                   /*verify=*/false);
}

Result<QueryResult> SetSimilarityIndex::Query(const ElementSet& query,
                                              double sigma1,
                                              double sigma2) const {
  return QueryImpl(query, sigma1, sigma2, /*view=*/nullptr,
                   /*scratch=*/nullptr, /*signature=*/nullptr,
                   /*verify=*/true);
}

Result<QueryResult> SetSimilarityIndex::QueryThrough(
    SetStore::ReadView& view, const ElementSet& query, double sigma1,
    double sigma2, std::vector<SetId>* scratch,
    const Signature* signature) const {
  return QueryImpl(query, sigma1, sigma2, &view, scratch, signature,
                   /*verify=*/true);
}

Result<QueryResult> SetSimilarityIndex::QueryImpl(
    const ElementSet& query, double sigma1, double sigma2,
    SetStore::ReadView* view, std::vector<SetId>* scratch,
    const Signature* signature, bool verify) const {
  SSR_RETURN_IF_ERROR(ValidateRangeQuery(query, sigma1, sigma2));
  if (signature != nullptr &&
      signature->size() != embedding_->hasher().params().num_hashes) {
    return Status::InvalidArgument("query signature dimension mismatch");
  }
  // Pin an epoch for the query's whole lifetime: every bucket, directory,
  // or signature version loaded below stays allocated until the guard
  // drops, whatever concurrent writers retire meanwhile.
  std::optional<exec::EpochGuard> epoch_guard;
  if (epoch_manager_ != nullptr) epoch_guard.emplace(*epoch_manager_);
  Stopwatch watch;
  obs::TraceSpan root(verify ? "query" : "query_candidates");
  // All I/O this query causes — bucket probes, candidate fetches, a
  // degraded scan — lands on one model: the store's (serial path) or the
  // worker's private view (concurrent path). Its delta is this query's io.
  IoCostModel& io = view != nullptr ? view->io() : store_->io();
  const IoStats io_before = io.stats();
  queries_->Increment();
  QueryResult result;
  Signature own_signature;
  if (signature == nullptr) {
    obs::TraceSpan embed("embed");
    own_signature = embedding_->Sign(query);
    signature = &own_signature;
  }
  std::vector<SetId> candidates;
  bool additive_loss = false;
  {
    obs::TraceSpan plan("plan");
    candidates = ComputeCandidates(*signature, query.size(), sigma1, sigma2,
                                   &result.stats, &additive_loss, io, scratch);
    plan.Tag("size_pruned",
             static_cast<std::uint64_t>(result.stats.size_pruned));
  }
  if (result.stats.degraded &&
      options_.degrade == DegradeMode::kFailFast) {
    return Status::Unavailable("filter probe failed (fail-fast)");
  }
  // Under sequential fallback, a lossy candidate set can miss true results.
  // A verified query goes straight to the exact full scan below; a
  // candidate-only query returns every live sid, the sound superset
  // (verification downstream removes the extra false positives).
  bool need_full_scan =
      additive_loss && options_.degrade == DegradeMode::kSequentialFallback;
  if (need_full_scan && !verify) {
    obs::TraceSpan fallback("degraded_scan");
    seqscan_fallbacks_->Increment();
    candidates = LiveSids();
    need_full_scan = false;
  }
  result.stats.candidates = candidates.size();
  candidates_hist_->Observe(static_cast<double>(candidates.size()));

  // [0, 1] covers every set by definition: no verification needed. Any
  // narrower range that still fell through to the full-collection plan (no
  // enclosing filter points) must be verified like any other.
  const bool whole_range =
      result.stats.plan == QueryPlanKind::kFullCollection && sigma1 <= 0.0 &&
      sigma2 >= 1.0;
  if (!verify || (whole_range && !need_full_scan)) {
    result.sids = std::move(candidates);
  } else if (!need_full_scan) {
    // Verification: fetch each candidate and keep exact-similarity matches.
    obs::TraceSpan verify_span("verify");
    for (SetId sid : candidates) {
      auto set = view != nullptr ? view->Get(sid) : store_->Get(sid);
      if (!set.ok()) {
        if (set.status().IsNotFound()) continue;  // deleted concurrently
        // A real fetch failure (transient fault that exhausted retries, or
        // data loss): never silently drop the candidate.
        result.stats.fetch_failures += 1;
        fetch_failures_->Increment();
        result.stats.degraded = true;
        if (options_.degrade == DegradeMode::kFailFast) {
          sets_fetched_->Add(result.stats.sets_fetched);
          return Status::Unavailable("candidate fetch failed (fail-fast)");
        }
        if (options_.degrade == DegradeMode::kSequentialFallback) {
          need_full_scan = true;
          break;
        }
        continue;  // kPartialResults: skip, answer stays tagged degraded
      }
      result.stats.sets_fetched += 1;
      const double sim = Jaccard(set.value(), query);
      if (sim >= sigma1 - kEps && sim <= sigma2 + kEps) {
        result.sids.push_back(sid);
      }
    }
    sets_fetched_->Add(result.stats.sets_fetched);
    verify_span.Tag("fetched",
                    static_cast<std::uint64_t>(result.stats.sets_fetched));
  }

  if (need_full_scan) {
    // Exact degraded path: verify the whole collection sequentially. Same
    // answer as the sequential-scan baseline, at its I/O cost.
    obs::TraceSpan scan("degraded_scan");
    seqscan_fallbacks_->Increment();
    result.stats.degraded = true;
    result.sids.clear();
    const auto verify_all = [&](SetId sid, const ElementSet& set) {
      const double sim = Jaccard(set, query);
      if (sim >= sigma1 - kEps && sim <= sigma2 + kEps) {
        result.sids.push_back(sid);
      }
      return true;
    };
    if (view != nullptr) {
      view->ScanAll(verify_all);
    } else {
      store_->ScanAll(verify_all);
    }
    scan.Tag("results", static_cast<std::uint64_t>(result.sids.size()));
  }
  if (result.stats.degraded) degraded_queries_->Increment();
  result.stats.io = io.stats() - io_before;
  FinishStats(watch, &result.stats);
  if (verify) results_->Add(result.sids.size());
  result.stats.results = result.sids.size();
  root.Tag("plan", QueryPlanKindName(result.stats.plan));
  root.Tag("lo", result.stats.lo_point);
  root.Tag("up", result.stats.up_point);
  root.Tag("candidates", static_cast<std::uint64_t>(result.stats.candidates));
  root.Tag("results", static_cast<std::uint64_t>(result.stats.results));
  if (result.stats.degraded) root.Tag("degraded", std::uint64_t{1});
  if (view == nullptr && workload_observer_ != nullptr) {
    // Serial-path workload capture. Concurrent callers (QueryThrough) are
    // deliberately excluded: their executors own per-worker observers fed
    // from the returned QueryStats, so nothing is double counted.
    workload_observer_->CountQuery(sigma1, sigma2, query.size());
    for (const auto& p : result.stats.fi_probes) {
      workload_observer_->CountFiProbe(p.fi, p.bucket_accesses, p.sids,
                                       p.failed);
    }
    // Candidates are not verified answers, so only Query offers samples.
    // The shadow oracle's precision measures the filter, so it counts the
    // candidates the size window dropped too.
    if (verify) {
      workload_observer_->OfferSample(query, sigma1, sigma2, result.sids,
                                      result.stats.filter_candidates());
    }
    workload_observer_->UpdateGauges();
  }
  return result;
}

void SetSimilarityIndex::FinishStats(const Stopwatch& watch,
                                     QueryStats* stats) const {
  stats->io_seconds = stats->io.SimulatedSeconds(store_->io().params());
  stats->cpu_seconds = watch.ElapsedSeconds();
  latency_hist_->Observe(stats->cpu_seconds * 1e6);
}

std::uint64_t SetSimilarityIndex::ContentDigest() const {
  std::optional<exec::EpochGuard> epoch_guard;
  if (epoch_manager_ != nullptr) epoch_guard.emplace(*epoch_manager_);
  std::uint64_t h = SplitMix64(fis_.size());
  for (const auto& fi : fis_) {
    h = HashCombine(h, fi.sfi != nullptr ? fi.sfi->ContentDigest()
                                         : fi.dfi->ContentDigest());
  }
  h = HashCombine(h, num_live_.load(std::memory_order_relaxed));
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  for (std::size_t sid = 0; sid < cap; ++sid) {
    const Signature* sig = signatures_.Get(sid);
    if (sig == nullptr) continue;
    h = HashCombine(h, static_cast<SetId>(sid));
    for (std::uint16_t v : sig->values()) {
      h = HashCombine(h, v);
    }
  }
  return h;
}

}  // namespace ssr
