#include "shard/sharded_index.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hash.h"
#include "util/set_ops.h"
#include "util/stopwatch.h"

namespace ssr {
namespace shard {

namespace {

constexpr std::string_view kShardedIndexMagic = "SSRSHARD";
constexpr std::uint32_t kShardedIndexVersion = 1;

std::string ShardScope(const std::string& base, std::uint32_t s) {
  std::string scope = base;
  scope += "/shard/";
  scope += std::to_string(s);
  return scope;
}

std::string ShardSectionName(std::uint32_t s, const char* kind) {
  std::string name = "shard";
  name += std::to_string(s);
  name += '_';
  name += kind;
  return name;
}

struct RebalanceMetrics {
  obs::Counter* begun;      // ssr_rebalance_begun_total
  obs::Counter* finished;   // ssr_rebalance_finished_total
  obs::Counter* moves;      // ssr_rebalance_moves_total
  obs::Counter* skipped;    // ssr_rebalance_moves_skipped_total
  obs::Gauge* active;       // ssr_rebalance_active
  obs::Gauge* pending;      // ssr_rebalance_pending_moves
};

RebalanceMetrics& Rebal() {
  static RebalanceMetrics* m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
    auto* metrics = new RebalanceMetrics();
    metrics->begun = r.GetCounter("ssr_rebalance_begun_total");
    metrics->finished = r.GetCounter("ssr_rebalance_finished_total");
    metrics->moves = r.GetCounter("ssr_rebalance_moves_total");
    metrics->skipped = r.GetCounter("ssr_rebalance_moves_skipped_total");
    metrics->active = r.GetGauge("ssr_rebalance_active");
    metrics->pending = r.GetGauge("ssr_rebalance_pending_moves");
    return metrics;
  }();
  return *m;
}

}  // namespace

std::uint32_t ResolveShardCount(std::uint32_t num_shards) {
  if (num_shards > 0) return num_shards;
  if (const char* env = std::getenv("SSR_SHARDS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::uint32_t>(parsed);
    }
  }
  return 1;  // sharding is opt-in; unset means a single shard
}

ShardedSetSimilarityIndex::ShardedSetSimilarityIndex(
    ShardedIndexOptions options, IndexLayout layout)
    : options_(std::move(options)),
      layout_(std::move(layout)),
      map_(options_.num_shards, options_.map_seed) {
  // The caller (Build/Load) resolved num_shards before constructing us. The
  // base metrics scope hangs the per-shard scopes off one stable prefix.
  base_scope_ = options_.index.metrics_scope.empty()
                    ? obs::MetricsRegistry::Default().NewScope("sharded")
                    : options_.index.metrics_scope;
  shards_.EnsureCapacity(options_.num_shards);
  for (std::uint32_t s = 0; s < options_.num_shards; ++s) {
    owned_shards_.push_back(std::make_unique<Shard>());
    shards_.Set(s, owned_shards_.back().get());
  }
  num_shards_.store(options_.num_shards, std::memory_order_seq_cst);
}

void ShardedSetSimilarityIndex::FreeShards() {
  // Slots may still point at the shards; null them before the owners go so
  // a stale Get during single-threaded teardown cannot dangle.
  for (std::uint32_t s = 0; s < shards_.capacity(); ++s) {
    shards_.Set(s, nullptr);
  }
  owned_shards_.clear();
}

ShardedSetSimilarityIndex::~ShardedSetSimilarityIndex() { FreeShards(); }

ShardedSetSimilarityIndex::ShardedSetSimilarityIndex(
    ShardedSetSimilarityIndex&& other) noexcept
    : options_(std::move(other.options_)),
      layout_(std::move(other.layout_)),
      embedding_(std::move(other.embedding_)),
      base_scope_(std::move(other.base_scope_)),
      map_(std::move(other.map_)),
      shards_(std::move(other.shards_)),
      owned_shards_(std::move(other.owned_shards_)),
      shard_wals_(std::move(other.shard_wals_)),
      local_of_global_(std::move(other.local_of_global_)),
      build_stats_(std::move(other.build_stats_)),
      epoch_manager_(other.epoch_manager_),
      rebalance_target_(other.rebalance_target_),
      pending_moves_(std::move(other.pending_moves_)),
      next_move_(other.next_move_),
      moves_done_(other.moves_done_),
      moves_skipped_(other.moves_skipped_),
      rebalance_checkpointed_(other.rebalance_checkpointed_),
      rebalance_wedged_(other.rebalance_wedged_),
      checkpoint_hook_(std::move(other.checkpoint_hook_)) {
  num_shards_.store(other.num_shards_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  num_live_.store(other.num_live_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  rebalance_active_.store(
      other.rebalance_active_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  other.num_shards_.store(0, std::memory_order_relaxed);
  other.num_live_.store(0, std::memory_order_relaxed);
  other.rebalance_active_.store(false, std::memory_order_relaxed);
  other.embedding_.reset();
  other.epoch_manager_ = nullptr;
  other.next_move_ = other.moves_done_ = other.moves_skipped_ = 0;
}

ShardedSetSimilarityIndex& ShardedSetSimilarityIndex::operator=(
    ShardedSetSimilarityIndex&& other) noexcept {
  if (this != &other) {
    FreeShards();
    options_ = std::move(other.options_);
    layout_ = std::move(other.layout_);
    embedding_ = std::move(other.embedding_);
    base_scope_ = std::move(other.base_scope_);
    map_ = std::move(other.map_);
    shards_ = std::move(other.shards_);
    owned_shards_ = std::move(other.owned_shards_);
    shard_wals_ = std::move(other.shard_wals_);
    local_of_global_ = std::move(other.local_of_global_);
    build_stats_ = std::move(other.build_stats_);
    epoch_manager_ = other.epoch_manager_;
    rebalance_target_ = other.rebalance_target_;
    pending_moves_ = std::move(other.pending_moves_);
    next_move_ = other.next_move_;
    moves_done_ = other.moves_done_;
    moves_skipped_ = other.moves_skipped_;
    rebalance_checkpointed_ = other.rebalance_checkpointed_;
    rebalance_wedged_ = other.rebalance_wedged_;
    checkpoint_hook_ = std::move(other.checkpoint_hook_);
    num_shards_.store(other.num_shards_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    num_live_.store(other.num_live_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    rebalance_active_.store(
        other.rebalance_active_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    other.num_shards_.store(0, std::memory_order_relaxed);
    other.num_live_.store(0, std::memory_order_relaxed);
    other.rebalance_active_.store(false, std::memory_order_relaxed);
    other.embedding_.reset();
    other.epoch_manager_ = nullptr;
    other.next_move_ = other.moves_done_ = other.moves_skipped_ = 0;
  }
  return *this;
}

Status ShardedSetSimilarityIndex::CreateShard(std::uint32_t s) {
  if (shards_.Get(s) == nullptr) {
    owned_shards_.push_back(std::make_unique<Shard>());
    shards_.Set(s, owned_shards_.back().get());
  }
  const std::string scope = ShardScope(base_scope_, s);
  SetStoreOptions store_options = options_.store;
  store_options.metrics_scope = scope + "/store";
  ShardAt(s).store = std::make_unique<SetStore>(store_options);
  return Status::OK();
}

IndexOptions ShardedSetSimilarityIndex::ShardIndexOptions(
    std::uint32_t s) const {
  IndexOptions index_options = options_.index;
  index_options.metrics_scope = ShardScope(base_scope_, s) + "/index";
  if (embedding_.has_value()) index_options.embedding = embedding_->params();
  return index_options;
}

void ShardedSetSimilarityIndex::EnableConcurrentWrites(
    exec::EpochManager* manager) {
  if (manager == nullptr) manager = &exec::EpochManager::Default();
  epoch_manager_ = manager;
  shards_.SetEpochManager(manager);
  const std::uint32_t n = num_shards();
  for (std::uint32_t s = 0; s < n; ++s) {
    Shard* sh = shards_.Get(s);
    if (sh == nullptr) continue;
    sh->global_of_local.SetEpochManager(manager);
    if (sh->index != nullptr) sh->index->EnableConcurrentWrites(manager);
  }
}

std::vector<SetId> ShardedSetSimilarityIndex::global_of_local(
    std::uint32_t s) const {
  std::optional<exec::EpochGuard> guard;
  if (epoch_manager_ != nullptr) guard.emplace(*epoch_manager_);
  const Shard* sh = shards_.Get(s);
  if (sh == nullptr) return {};
  const std::size_t n = sh->local_count.load(std::memory_order_seq_cst);
  std::vector<SetId> out(n, kInvalidSetId);
  for (std::size_t local = 0; local < n; ++local) {
    out[local] = sh->global_of_local.Get(local);
  }
  return out;
}

Result<ShardedSetSimilarityIndex> ShardedSetSimilarityIndex::Build(
    const SetCollection& sets, const IndexLayout& layout,
    const ShardedIndexOptions& options) {
  SSR_RETURN_IF_ERROR(layout.Validate());

  ShardedIndexOptions resolved = options;
  resolved.num_shards = ResolveShardCount(options.num_shards);
  ShardedSetSimilarityIndex sharded(std::move(resolved), layout);

  Stopwatch watch;
  obs::TraceSpan span("sharded_build");
  span.Tag("shards", static_cast<std::uint64_t>(sharded.num_shards()));
  span.Tag("sets", static_cast<std::uint64_t>(sets.size()));

  for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
    SSR_RETURN_IF_ERROR(sharded.CreateShard(s));
  }

  // Phase 1: partition. Global sid = position in `sets`; every sid gets an
  // explicit recorded vote so the placement is reproducible from the
  // snapshot, never re-derived.
  sharded.local_of_global_.resize(sets.size());
  for (SetId gsid = 0; gsid < sets.size(); ++gsid) {
    const std::uint32_t s = sharded.map_.Assign(gsid);
    Shard& sh = sharded.ShardAt(s);
    SetId local = kInvalidSetId;
    SSR_ASSIGN_OR_RETURN(local, sh.store->Add(sets[gsid]));
    sh.global_of_local.Set(local, gsid);
    sh.local_count.store(local + std::size_t{1}, std::memory_order_seq_cst);
    sharded.local_of_global_[gsid] = LocalRef{s, local};
  }
  sharded.num_live_.store(sets.size(), std::memory_order_relaxed);

  // Phase 2: per-shard index builds (each using the parallel builder).
  // Shards build one after another on this host but deploy independently,
  // so the modeled makespan is the slowest shard, not the sum.
  sharded.build_stats_.per_shard.reserve(sharded.num_shards());
  for (std::uint32_t s = 0; s < sharded.num_shards(); ++s) {
    obs::TraceSpan shard_span("sharded_build_shard");
    shard_span.Tag("shard", static_cast<std::uint64_t>(s));
    Shard& sh = sharded.ShardAt(s);
    auto built = SetSimilarityIndex::Build(*sh.store, layout,
                                           sharded.ShardIndexOptions(s));
    if (!built.ok()) return built.status();
    sh.index = std::make_unique<SetSimilarityIndex>(std::move(built).value());
    if (!sharded.embedding_.has_value()) {
      sharded.embedding_.emplace(sh.index->embedding());
    }
    sharded.build_stats_.per_shard.push_back(sh.index->build_stats());
    sharded.build_stats_.modeled_makespan_seconds =
        std::max(sharded.build_stats_.modeled_makespan_seconds,
                 sh.index->build_stats().makespan_seconds);
  }
  sharded.build_stats_.wall_seconds = watch.ElapsedSeconds();
  span.Tag("modeled_makespan_seconds",
           sharded.build_stats_.modeled_makespan_seconds);
  return sharded;
}

Status ShardedSetSimilarityIndex::InsertIntoShardLocked(
    std::uint32_t s, SetId sid, const ElementSet& set) {
  Shard& sh = ShardAt(s);
  SetId local = kInvalidSetId;
  SSR_ASSIGN_OR_RETURN(local, sh.store->Add(set));
  // Publish the local -> global mapping *before* the index entry: a
  // concurrent gather that finds the local in the index must be able to
  // translate it.
  sh.global_of_local.Set(local, sid);
  if (local + std::size_t{1} >
      sh.local_count.load(std::memory_order_seq_cst)) {
    sh.local_count.store(local + std::size_t{1}, std::memory_order_seq_cst);
  }
  Status st = sh.index->Insert(local, set);
  if (!st.ok()) {
    (void)sh.store->Delete(local);
    return st;
  }
  if (sid >= local_of_global_.size()) {
    local_of_global_.resize(sid + 1);
  }
  local_of_global_[sid] = LocalRef{s, local};
  return Status::OK();
}

Status ShardedSetSimilarityIndex::RemoveFromShardLocked(const LocalRef& ref) {
  Shard& sh = ShardAt(ref.shard);
  // Index first, then store: once the index stops returning the local, a
  // racing reader that already holds it still fetches through its pinned
  // snapshot (or sees NotFound, tagged by the degrade path). The dead
  // local's global_of_local entry intentionally stays — the store is the
  // liveness truth, exactly as it was with the plain vector.
  SSR_RETURN_IF_ERROR(sh.index->Erase(ref.local));
  SSR_RETURN_IF_ERROR(sh.store->Delete(ref.local));
  return Status::OK();
}

Status ShardedSetSimilarityIndex::Insert(SetId sid, const ElementSet& set) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (sid < local_of_global_.size() &&
      local_of_global_[sid].shard != ShardMap::kUnassigned) {
    return Status::AlreadyExists("global sid already live");
  }
  if (!IsNormalizedSet(set)) {
    return Status::InvalidArgument("set must be sorted and duplicate-free");
  }
  // Mid-rebalance inserts vote under the *target* topology so nothing
  // fresh lands on a draining shard (shrink) and new shards fill (grow).
  const std::uint32_t s =
      rebalance_active_.load(std::memory_order_seq_cst)
          ? map_.AssignForTarget(sid, rebalance_target_)
          : map_.Assign(sid);
  if (shard_degraded(s)) {
    map_.Forget(sid);
    return Status::Unavailable("shard is degraded");
  }
  // Write-ahead, with the *global* sid: recovery replays through this
  // same Insert, so the record must carry the id the caller speaks. The
  // normalization precondition is checked above so nothing unappliable is
  // ever logged; a failed append fails the Insert with nothing applied.
  if (WalWriter* wal = shard_wal(s)) {
    auto appended = wal->AppendInsert(sid, set);
    if (!appended.ok()) {
      map_.Forget(sid);
      return appended.status();
    }
  }
  Status st = InsertIntoShardLocked(s, sid, set);
  if (!st.ok()) {
    map_.Forget(sid);
    return st;
  }
  num_live_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedSetSimilarityIndex::Erase(SetId sid) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (sid >= local_of_global_.size() ||
      local_of_global_[sid].shard == ShardMap::kUnassigned) {
    return Status::NotFound("sid not indexed");
  }
  const LocalRef ref = local_of_global_[sid];
  if (shard_degraded(ref.shard)) {
    return Status::Unavailable("shard is degraded");
  }
  if (WalWriter* wal = shard_wal(ref.shard)) {
    SSR_RETURN_IF_ERROR(wal->AppendErase(sid).status());
  }
  SSR_RETURN_IF_ERROR(RemoveFromShardLocked(ref));
  local_of_global_[sid] = LocalRef{};
  map_.Forget(sid);
  num_live_.fetch_sub(1, std::memory_order_relaxed);
  return Status::OK();
}

void ShardedSetSimilarityIndex::GatherShardAnswer(
    std::uint32_t s, QueryResult&& answer, ShardedQueryResult* result) const {
  const Shard* sh = shards_.Get(s);
  if (sh == nullptr) return;  // shrink retired it mid-query; tagged already
  for (SetId local : answer.sids) {
    const SetId g = sh->global_of_local.Get(local);
    // kInvalidSetId cannot surface for a local the index returned (the
    // mapping publishes before the index entry); guard anyway so a logic
    // bug degrades to a dropped row, never an invalid sid.
    if (g != kInvalidSetId) result->sids.push_back(g);
  }
  // Counters and I/O sum across shards; the plan and enclosing points agree
  // on every shard (same layout, same σs) so overwriting is deterministic.
  QueryStats& total = result->stats;
  const QueryStats& stats = answer.stats;
  total.plan = stats.plan;
  total.lo_point = stats.lo_point;
  total.up_point = stats.up_point;
  total.candidates += stats.candidates;
  total.bucket_accesses += stats.bucket_accesses;
  total.bucket_pages += stats.bucket_pages;
  total.sids_scanned += stats.sids_scanned;
  total.sets_fetched += stats.sets_fetched;
  total.io += stats.io;
  total.io_seconds += stats.io_seconds;
  total.cpu_seconds += stats.cpu_seconds;
  total.probe_failures += stats.probe_failures;
  total.fetch_failures += stats.fetch_failures;
  total.retry_attempts += stats.retry_attempts;
  total.retry_backoff_micros += stats.retry_backoff_micros;
  // Per-FI probe attribution: every shard probes the same layout, so
  // entries accumulate by fi index (shards' probe orders agree — plans do).
  for (const QueryStats::FiProbeStat& probe : stats.fi_probes) {
    QueryStats::FiProbeStat* merged = nullptr;
    for (QueryStats::FiProbeStat& existing : total.fi_probes) {
      if (existing.fi == probe.fi) {
        merged = &existing;
        break;
      }
    }
    if (merged == nullptr) {
      total.fi_probes.push_back(probe);
    } else {
      merged->bucket_accesses += probe.bucket_accesses;
      merged->sids += probe.sids;
      merged->failed = merged->failed || probe.failed;
    }
  }
  if (stats.degraded) {
    total.degraded = true;
    // A shard that degraded under its own kPartialResults mode may have
    // dropped candidates, so the merged answer may be missing sids.
    if (options_.index.degrade == DegradeMode::kPartialResults) {
      result->partial = true;
    }
  }
  if (s < result->per_shard.size()) result->per_shard[s] = stats;
}

Status ShardedSetSimilarityIndex::GatherShardFailure(
    std::uint32_t s, Status status, ShardedQueryResult* result) const {
  static obs::Counter* const skipped = obs::MetricsRegistry::Default()
      .GetCounter("ssr_sharded_shards_skipped_total");
  if (options_.on_shard_failure == ShardFailurePolicy::kFailFast) {
    return Status::Unavailable("shard " + std::to_string(s) +
                               " cannot answer: " + status.ToString());
  }
  skipped->Increment();
  if (s < result->shard_status.size()) {
    result->shard_status[s] = std::move(status);
  }
  result->degraded_shards.push_back(s);
  result->stats.degraded = true;
  result->partial = true;
  return Status::OK();
}

void ShardedSetSimilarityIndex::FinishGather(ShardedQueryResult* result) const {
  // Shard answers are disjoint at rest, but a sid whose move commits
  // mid-scatter can be gathered from both its old and new shard — so the
  // merge sorts *and* dedups. Sorting also erases any dependence on the
  // shard iteration order: the output is ascending global sids, always.
  std::sort(result->sids.begin(), result->sids.end());
  result->sids.erase(std::unique(result->sids.begin(), result->sids.end()),
                     result->sids.end());
  if (rebalance_active_.load(std::memory_order_seq_cst)) {
    // A move's commit window can hide the moving sid from this scatter:
    // conservative partial tagging, same contract as a degraded shard —
    // a verified subset, never a wrong member.
    result->rebalancing = true;
    result->partial = true;
  }
  result->stats.results = result->sids.size();
}

Result<ShardedQueryResult> ShardedSetSimilarityIndex::Query(
    const ElementSet& query, double sigma1, double sigma2) const {
  SSR_RETURN_IF_ERROR(ValidateRangeQuery(query, sigma1, sigma2));
  obs::TraceSpan span("sharded_query");
  std::optional<exec::EpochGuard> guard;
  if (epoch_manager_ != nullptr) guard.emplace(*epoch_manager_);
  const std::uint32_t n = num_shards();
  span.Tag("shards", static_cast<std::uint64_t>(n));
  ShardedQueryResult result;
  if (rebalance_active_.load(std::memory_order_seq_cst)) {
    result.rebalancing = true;
    result.partial = true;
  }
  result.per_shard.resize(n);
  result.shard_status.assign(n, Status::OK());
  for (std::uint32_t s = 0; s < n; ++s) {
    // Load the slot exactly once: a concurrent shrink can null it between
    // a degraded check and the probe (the epoch guard defers the *free*,
    // not the null store), so every dereference below goes through `sh`.
    const Shard* sh = shards_.Get(s);
    if (sh == nullptr) {
      if (s >= num_shards()) {
        // Shrink-retired mid-query: the shard was verified empty before
        // its slot was nulled, so skipping it drops nothing — but the
        // overlap means a moved sid may be hidden from this scatter, so
        // tag conservatively (same contract as an active rebalance).
        result.rebalancing = true;
        result.partial = true;
        continue;
      }
      SSR_RETURN_IF_ERROR(GatherShardFailure(
          s, Status::Unavailable("shard administratively degraded"), &result));
      continue;
    }
    if (sh->index == nullptr ||
        sh->degraded.load(std::memory_order_relaxed)) {
      SSR_RETURN_IF_ERROR(GatherShardFailure(
          s, Status::Unavailable("shard administratively degraded"), &result));
      continue;
    }
    auto answer = sh->index->Query(query, sigma1, sigma2);
    if (!answer.ok()) {
      SSR_RETURN_IF_ERROR(GatherShardFailure(s, answer.status(), &result));
      continue;
    }
    GatherShardAnswer(s, std::move(answer).value(), &result);
  }
  FinishGather(&result);
  span.Tag("results", static_cast<std::uint64_t>(result.sids.size()));
  if (result.partial) span.Tag("partial", std::uint64_t{1});
  if (result.rebalancing) span.Tag("rebalancing", std::uint64_t{1});
  return result;
}

void ShardedSetSimilarityIndex::SetShardDegraded(std::uint32_t s,
                                                 bool degraded) {
  Shard* sh = shards_.Get(s);
  if (sh != nullptr) sh->degraded.store(degraded, std::memory_order_relaxed);
}

// --- Online rebalance ---------------------------------------------------

Status ShardedSetSimilarityIndex::BeginRebalance(std::uint32_t new_num_shards) {
  SSR_RETURN_IF_ERROR(BeginRebalanceImpl(new_num_shards));
  // The hook runs without writer_mu_: it typically attaches WALs to the
  // freshly published shards (AttachShardWal locks) and writes the
  // post-Begin checkpoint. On hook failure the rebalance stays active but
  // un-checkpointed, so StepRebalance refuses until the caller recovers.
  if (checkpoint_hook_) {
    SSR_RETURN_IF_ERROR(checkpoint_hook_());
    return MarkRebalanceCheckpointed();
  }
  return Status::OK();
}

Status ShardedSetSimilarityIndex::BeginRebalanceImpl(
    std::uint32_t new_num_shards) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (rebalance_active_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("a rebalance is already active");
  }
  const std::uint32_t target = new_num_shards == 0 ? 1 : new_num_shards;
  const std::uint32_t current = num_shards();
  for (std::uint32_t s = 0; s < current; ++s) {
    if (shard_degraded(s)) {
      return Status::Unavailable(
          "cannot rebalance with a degraded shard (restore or drop shard " +
          std::to_string(s) + " first)");
    }
  }
  obs::TraceSpan span("rebalance_begin");
  span.Tag("from_shards", static_cast<std::uint64_t>(current));
  span.Tag("to_shards", static_cast<std::uint64_t>(target));

  pending_moves_ = map_.PlanRebalance(target);
  next_move_ = moves_done_ = moves_skipped_ = 0;
  rebalance_target_ = target;

  if (target > current) {
    // Grow: publish the new, still-empty shards before any mover or fresh
    // insert can route to them. Each Shard is fully initialized — store,
    // index, epoch wiring — *before* its slot is set: a reader that pinned
    // under a wider pre-shrink topology can still load these slots
    // mid-scatter, so a half-built Shard must never be reachable. Slot
    // first, count after — a reader that observes the bumped count finds
    // live slots.
    for (std::uint32_t s = current; s < target; ++s) {
      auto fresh = std::make_unique<Shard>();
      SetStoreOptions store_options = options_.store;
      store_options.metrics_scope = ShardScope(base_scope_, s) + "/store";
      fresh->store = std::make_unique<SetStore>(store_options);
      auto built = SetSimilarityIndex::Build(*fresh->store, layout_,
                                             ShardIndexOptions(s));
      if (!built.ok()) return built.status();
      fresh->index =
          std::make_unique<SetSimilarityIndex>(std::move(built).value());
      if (epoch_manager_ != nullptr) {
        fresh->global_of_local.SetEpochManager(epoch_manager_);
        fresh->index->EnableConcurrentWrites(epoch_manager_);
      }
      owned_shards_.push_back(std::move(fresh));
      shards_.Set(s, owned_shards_.back().get());
    }
    num_shards_.store(target, std::memory_order_seq_cst);
    // Fresh inserts now vote under the grown topology (existing recorded
    // assignments are untouched until their move commits).
    map_.SetNumShards(target);
  }
  // Shrink keeps the old count until FinishRebalance: the draining shards
  // still hold un-moved sids that queries must keep reaching.

  span.Tag("planned_moves", static_cast<std::uint64_t>(pending_moves_.size()));
  Rebal().begun->Increment();
  Rebal().active->Set(1.0);
  Rebal().pending->Set(static_cast<double>(pending_moves_.size()));
  // With any WAL attached, moves must wait for the post-Begin checkpoint:
  // without one, a crash replays move records against the pre-Begin cut,
  // where a sid's records from an older topology can interleave across
  // logs with no consistent replay order. WAL-less (in-memory) callers owe
  // nothing.
  bool any_wal = false;
  for (const WalWriter* wal : shard_wals_) any_wal = any_wal || wal != nullptr;
  rebalance_checkpointed_ = !any_wal;
  rebalance_wedged_ = false;
  rebalance_active_.store(true, std::memory_order_seq_cst);
  return Status::OK();
}

Status ShardedSetSimilarityIndex::MarkRebalanceCheckpointed() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!rebalance_active_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("no rebalance is active");
  }
  rebalance_checkpointed_ = true;
  return Status::OK();
}

Result<bool> ShardedSetSimilarityIndex::ExecuteMoveLocked(
    const ShardMove& move) {
  if (move.sid >= local_of_global_.size() ||
      local_of_global_[move.sid].shard != move.from) {
    // Erased, or re-placed by an earlier recovery/convergence pass, since
    // the plan was taken. Nothing to migrate.
    return false;
  }
  if (shard_degraded(move.from) || shard_degraded(move.to)) {
    return Status::Unavailable("shard degraded mid-rebalance");
  }
  const LocalRef ref = local_of_global_[move.sid];
  Shard& src = ShardAt(move.from);
  ElementSet set;
  SSR_ASSIGN_OR_RETURN(set, src.store->Get(ref.local));
  // Move protocol: advisory kMoveOut to the source log, then kMoveIn — the
  // commit point — to the destination log carrying the payload. A crash
  // before the kMoveIn sync leaves the sid fully old; after, recovery's
  // ApplyMoveIn lands it fully new. Never split.
  if (WalWriter* wal = shard_wal(move.from)) {
    SSR_RETURN_IF_ERROR(wal->AppendMoveOut(move.sid, move.to).status());
  }
  if (WalWriter* wal = shard_wal(move.to)) {
    SSR_RETURN_IF_ERROR(wal->AppendMoveIn(move.sid, move.from, set).status());
  }
  // Committed. Copy into the destination (readers may briefly see both
  // copies — FinishGather dedups), cut the routing over, then drop the
  // source copy. A failure past this point is NOT retryable: the log
  // already says the move happened, so re-running it would diverge from
  // what recovery replays — and a lingering source copy would keep
  // answering after a later erase. Wedge the state machine instead; the
  // durable truth is checkpoint + WALs.
  Status applied = InsertIntoShardLocked(move.to, move.sid, set);
  if (applied.ok()) {
    map_.Reassign(move.sid, move.to);
    applied = RemoveFromShardLocked(ref);
  }
  if (!applied.ok()) {
    rebalance_wedged_ = true;
    return Status::Internal(
        "move apply failed after its WAL commit point (" +
        applied.message() +
        "); rebalance wedged — recover from checkpoint + WALs");
  }
  return true;
}

Result<std::size_t> ShardedSetSimilarityIndex::StepRebalance(
    std::size_t max_moves) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!rebalance_active_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("no rebalance is active");
  }
  if (rebalance_wedged_) {
    return Status::FailedPrecondition(
        "rebalance is wedged: a move failed after its WAL commit point — "
        "recover from checkpoint + WALs");
  }
  if (!rebalance_checkpointed_) {
    return Status::FailedPrecondition(
        "rebalance moves require the post-Begin checkpoint: write one and "
        "call MarkRebalanceCheckpointed (or install a checkpoint hook)");
  }
  obs::TraceSpan span("rebalance_step");
  std::size_t processed = 0;
  while (processed < max_moves && next_move_ < pending_moves_.size()) {
    auto moved = ExecuteMoveLocked(pending_moves_[next_move_]);
    // Unavailable/NotFound before the kMoveIn append is retryable:
    // next_move_ stays and nothing was committed. A post-commit failure
    // comes back Internal with rebalance_wedged_ set — every further Step
    // and Finish then refuses.
    if (!moved.ok()) return moved.status();
    ++next_move_;
    ++processed;
    if (*moved) {
      ++moves_done_;
      Rebal().moves->Increment();
    } else {
      ++moves_skipped_;
      Rebal().skipped->Increment();
    }
  }
  const std::size_t remaining = pending_moves_.size() - next_move_;
  Rebal().pending->Set(static_cast<double>(remaining));
  span.Tag("processed", static_cast<std::uint64_t>(processed));
  span.Tag("remaining", static_cast<std::uint64_t>(remaining));
  return remaining;
}

Status ShardedSetSimilarityIndex::FinishRebalance() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (!rebalance_active_.load(std::memory_order_seq_cst)) {
    return Status::FailedPrecondition("no rebalance is active");
  }
  if (rebalance_wedged_) {
    return Status::FailedPrecondition(
        "rebalance is wedged: a move failed after its WAL commit point — "
        "recover from checkpoint + WALs");
  }
  if (!rebalance_checkpointed_ && next_move_ < pending_moves_.size()) {
    return Status::FailedPrecondition(
        "rebalance moves require the post-Begin checkpoint: write one and "
        "call MarkRebalanceCheckpointed (or install a checkpoint hook)");
  }
  if (next_move_ < pending_moves_.size()) {
    return Status::FailedPrecondition("planned moves are still pending");
  }
  obs::TraceSpan span("rebalance_finish");
  const std::uint32_t current = num_shards();
  const std::uint32_t target = rebalance_target_;
  span.Tag("to_shards", static_cast<std::uint64_t>(target));
  if (target < current) {
    for (std::uint32_t s = target; s < current; ++s) {
      const Shard* sh = shards_.Get(s);
      if (sh != nullptr && sh->store != nullptr && sh->store->size() != 0) {
        return Status::Internal("draining shard still holds live sets");
      }
    }
    // Adopt the shrunk topology, then retire the husks. Count first, slots
    // after: a reader that loaded the old count just before the store may
    // find a nulled slot, and shard_retired() classifies exactly that case
    // (null at/past the new count) as shrink-retired — provably empty, so
    // the reader tags rebalancing+partial instead of tripping the failure
    // policy.
    num_shards_.store(target, std::memory_order_seq_cst);
    map_.SetNumShards(target);
    for (std::uint32_t s = target; s < current; ++s) {
      Shard* victim = shards_.Get(s);
      shards_.Set(s, nullptr);
      if (s < shard_wals_.size()) shard_wals_[s] = nullptr;
      if (victim == nullptr) continue;
      auto owner = std::find_if(
          owned_shards_.begin(), owned_shards_.end(),
          [victim](const std::unique_ptr<Shard>& p) {
            return p.get() == victim;
          });
      if (owner != owned_shards_.end()) {
        owner->release();
        owned_shards_.erase(owner);
      }
      if (epoch_manager_ != nullptr) {
        epoch_manager_->Retire([victim] { delete victim; });
      } else {
        delete victim;
      }
    }
  }
  rebalance_active_.store(false, std::memory_order_seq_cst);
  pending_moves_.clear();
  next_move_ = 0;
  rebalance_target_ = 0;
  rebalance_checkpointed_ = true;
  Rebal().finished->Increment();
  Rebal().active->Set(0.0);
  Rebal().pending->Set(0.0);
  return Status::OK();
}

Status ShardedSetSimilarityIndex::RebalanceTo(std::uint32_t new_num_shards) {
  SSR_RETURN_IF_ERROR(BeginRebalance(new_num_shards));
  for (;;) {
    auto remaining = StepRebalance(64);
    if (!remaining.ok()) return remaining.status();
    if (*remaining == 0) break;
  }
  return FinishRebalance();
}

RebalanceStatus ShardedSetSimilarityIndex::rebalance_status() const {
  std::lock_guard<std::mutex> lock(writer_mu_);
  RebalanceStatus status;
  status.active = rebalance_active_.load(std::memory_order_seq_cst);
  status.target_shards = rebalance_target_;
  status.moves_planned = pending_moves_.size();
  status.moves_done = moves_done_;
  status.moves_skipped = moves_skipped_;
  status.checkpointed = rebalance_checkpointed_;
  status.wedged = rebalance_wedged_;
  return status;
}

Status ShardedSetSimilarityIndex::ApplyMoveInLocked(std::uint32_t dest,
                                                    SetId sid,
                                                    const ElementSet& set) {
  const bool recorded =
      sid < local_of_global_.size() &&
      local_of_global_[sid].shard != ShardMap::kUnassigned;
  if (recorded && local_of_global_[sid].shard == dest) {
    return Status::AlreadyExists("sid already lives at the destination");
  }
  bool removed_live = false;
  if (recorded) {
    const LocalRef ref = local_of_global_[sid];
    if (!shard_degraded(ref.shard)) {
      SSR_RETURN_IF_ERROR(RemoveFromShardLocked(ref));
      removed_live = true;
    }
    // A degraded source cannot release its copy; the kMoveIn payload is
    // authoritative, so the relocation proceeds regardless.
  }
  if (!IsNormalizedSet(set)) {
    return Status::Corruption("kMoveIn payload is not a normalized set");
  }
  SSR_RETURN_IF_ERROR(InsertIntoShardLocked(dest, sid, set));
  map_.Reassign(sid, dest);
  // A sid removed from a live shard nets zero; one that was absent (its
  // insert replays later / its source shard is dead) counts as new.
  if (!removed_live) num_live_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedSetSimilarityIndex::ApplyMoveIn(std::uint32_t dest, SetId sid,
                                              std::uint32_t from_shard,
                                              const ElementSet& set) {
  (void)from_shard;  // advisory; local_of_global_ is the routing truth
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (dest >= num_shards()) {
    return Status::Corruption("kMoveIn destination shard out of range");
  }
  if (shard_degraded(dest)) {
    return Status::Unavailable("kMoveIn destination shard is degraded");
  }
  return ApplyMoveInLocked(dest, sid, set);
}

// --- Persistence --------------------------------------------------------

Status ShardedSetSimilarityIndex::SaveTo(std::ostream& out) const {
  SnapshotWriter snapshot(out, kShardedIndexMagic, kShardedIndexVersion);
  const std::uint32_t n = num_shards();

  {
    BinaryWriter& meta = snapshot.BeginSection("meta");
    meta.WriteU32(n);
    meta.WriteU64(num_live_.load(std::memory_order_relaxed));
    meta.WriteU64(local_of_global_.size());
    for (std::uint32_t s = 0; s < n; ++s) {
      // A shard that is *dead* (lost in a previous salvage) has nothing to
      // serialize; it round-trips as dead. The administrative degraded flag
      // is runtime-only and intentionally not persisted.
      meta.WriteBool(shard_index(s) == nullptr);
    }
    SSR_RETURN_IF_ERROR(snapshot.EndSection());
  }
  {
    BinaryWriter& body = snapshot.BeginSection("shardmap");
    map_.WriteTo(body);
    SSR_RETURN_IF_ERROR(snapshot.EndSection());
  }
  {
    BinaryWriter& body = snapshot.BeginSection("routing");
    for (std::uint32_t s = 0; s < n; ++s) {
      body.WriteVector(global_of_local(s));
    }
    SSR_RETURN_IF_ERROR(snapshot.EndSection());
  }

  // One nested snapshot pair per shard, each its own checksummed section so
  // damage quarantines one shard while its neighbors stay loadable.
  for (std::uint32_t s = 0; s < n; ++s) {
    const Shard& sh = ShardAt(s);
    std::string store_bytes, index_bytes;
    if (sh.index != nullptr) {
      std::ostringstream store_out, index_out;
      SSR_RETURN_IF_ERROR(sh.store->SaveTo(store_out));
      SSR_RETURN_IF_ERROR(sh.index->SaveTo(index_out));
      store_bytes = std::move(store_out).str();
      index_bytes = std::move(index_out).str();
    }
    BinaryWriter& store_section =
        snapshot.BeginSection(ShardSectionName(s, "store"));
    store_section.WriteBytes(store_bytes.data(), store_bytes.size());
    SSR_RETURN_IF_ERROR(snapshot.EndSection());
    BinaryWriter& index_section =
        snapshot.BeginSection(ShardSectionName(s, "index"));
    index_section.WriteBytes(index_bytes.data(), index_bytes.size());
    SSR_RETURN_IF_ERROR(snapshot.EndSection());
  }
  return snapshot.Finish();
}

Result<ShardedSetSimilarityIndex> ShardedSetSimilarityIndex::Load(
    std::istream& in, const ShardedIndexOptions& options,
    const SnapshotLoadOptions& load_options) {
  SnapshotReader snapshot(in);
  std::uint32_t version = 0;
  SSR_RETURN_IF_ERROR(snapshot.ReadHeader(kShardedIndexMagic, &version));
  if (version != kShardedIndexVersion) {
    return Status::NotSupported("unknown sharded-index snapshot version");
  }

  // The structural sections (meta, shardmap, routing) are small and load
  // strictly — without them there is nothing to route to, so salvage
  // cannot help. Shard payload damage is where salvage earns its keep.
  std::string payload;
  SSR_RETURN_IF_ERROR(snapshot.ReadSection("meta", &payload));
  std::uint32_t num_shards = 0;
  std::uint64_t num_live = 0, capacity = 0;
  std::vector<bool> dead;
  {
    std::istringstream meta_in(payload);
    BinaryReader meta(meta_in);
    SSR_RETURN_IF_ERROR(meta.ReadU32(&num_shards));
    SSR_RETURN_IF_ERROR(meta.ReadU64(&num_live));
    SSR_RETURN_IF_ERROR(meta.ReadU64(&capacity));
    if (num_shards == 0) {
      return Status::Corruption("sharded snapshot with 0 shards");
    }
    if (num_shards > (1u << 20) || capacity > (1ULL << 32) ||
        num_live > capacity) {
      return Status::Corruption("implausible sharded-snapshot meta");
    }
    dead.resize(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      bool flag = false;
      SSR_RETURN_IF_ERROR(meta.ReadBool(&flag));
      dead[s] = flag;
    }
  }

  SSR_RETURN_IF_ERROR(snapshot.ReadSection("shardmap", &payload));
  std::istringstream map_in(payload);
  BinaryReader map_reader(map_in);
  auto map_or = ShardMap::ReadFrom(map_reader);
  if (!map_or.ok()) return map_or.status();
  ShardMap map = std::move(map_or).value();
  if (map.num_shards() != num_shards) {
    return Status::Corruption("shard map / meta shard-count mismatch");
  }

  SSR_RETURN_IF_ERROR(snapshot.ReadSection("routing", &payload));
  std::vector<std::vector<SetId>> routing(num_shards);
  {
    std::istringstream routing_in(payload);
    BinaryReader routing_reader(routing_in);
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      SSR_RETURN_IF_ERROR(routing_reader.ReadVector(&routing[s]));
    }
  }

  ShardedIndexOptions resolved = options;
  resolved.num_shards = num_shards;
  resolved.map_seed = map.seed();
  ShardedSetSimilarityIndex sharded(std::move(resolved), IndexLayout{});
  sharded.map_ = std::move(map);

  RecoveryReport report;
  bool truncated = false;  // DataLoss: everything after this point is gone
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    Shard& sh = sharded.ShardAt(s);
    for (SetId local = 0; local < routing[s].size(); ++local) {
      sh.global_of_local.Set(local, routing[s][local]);
    }
    sh.local_count.store(routing[s].size(), std::memory_order_seq_cst);

    std::string store_payload, index_payload;
    Status store_st = Status::OK(), index_st = Status::OK();
    if (!truncated) {
      store_st = snapshot.ReadSection(ShardSectionName(s, "store"),
                                      &store_payload);
      if (store_st.IsDataLoss()) truncated = true;
    } else {
      store_st = Status::DataLoss("snapshot truncated before this shard");
    }
    if (!truncated) {
      index_st = snapshot.ReadSection(ShardSectionName(s, "index"),
                                      &index_payload);
      if (index_st.IsDataLoss()) truncated = true;
    } else {
      index_st = Status::DataLoss("snapshot truncated before this shard");
    }
    if (!load_options.salvage) {
      SSR_RETURN_IF_ERROR(store_st);
      SSR_RETURN_IF_ERROR(index_st);
    }
    if (dead[s]) continue;  // was already lost when saved; stays dead

    // The section payload *is* the nested snapshot. A CRC mismatch on the
    // outer section still yields the (corrupt) bytes — hand them to the
    // inner loader, whose page-level salvage can often keep most of the
    // shard.
    SSR_RETURN_IF_ERROR(
        sharded.LoadShardFromPayloads(s, store_st, store_payload, index_st,
                                      index_payload, load_options, &report));
    if (sh.index == nullptr) {
      // The whole shard was unrecoverable: its routed sids are lost.
      report.salvaged = true;
      for (SetId g : routing[s]) {
        if (g != kInvalidSetId && sharded.map_.IsAssigned(g) &&
            sharded.map_.ShardOf(g) == s) {
          ++report.records_quarantined;
        }
      }
    }
  }

  Status footer = truncated ? Status::DataLoss("snapshot truncated")
                            : snapshot.VerifyFooter();
  if (!footer.ok()) {
    if (!load_options.salvage) return footer;
    report.salvaged = true;
  }

  // Every surviving shard must sign under the one embedding (each shard
  // section nests its own index snapshot, so skew in any EmbeddingParams
  // field is representable on disk): the router hands one query signature
  // to every shard. Typed NotSupported, same contract as the single-index
  // family check. embedding_ is set whenever any shard index loaded.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const Shard& sh = sharded.ShardAt(s);
    if (sh.index != nullptr &&
        sh.index->embedding().params() != sharded.embedding_->params()) {
      return Status::NotSupported(
          "shard embedding parameters differ across shard sections");
    }
  }

  // Rebuild the global -> local table from the per-shard routing tables.
  // Liveness truth: a healthy shard's store (salvage may have dropped
  // records); for a dead shard, the persisted map (its live sids at save
  // time — they exist but are unavailable until restored).
  sharded.local_of_global_.assign(static_cast<std::size_t>(capacity),
                                  LocalRef{});
  std::size_t live_total = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    Shard& sh = sharded.ShardAt(s);
    for (SetId local = 0; local < routing[s].size(); ++local) {
      const SetId g = routing[s][local];
      if (g == kInvalidSetId || g >= capacity) continue;
      const bool live = sh.store != nullptr
                            ? sh.store->Contains(local)
                            : (sharded.map_.IsAssigned(g) &&
                               sharded.map_.ShardOf(g) == s);
      if (live) sharded.local_of_global_[g] = LocalRef{s, local};
    }
    if (sh.store != nullptr) live_total += sh.store->size();
  }
  sharded.num_live_.store(live_total, std::memory_order_relaxed);

  if (load_options.report != nullptr) {
    load_options.report->MergeFrom(report);
  }
  return sharded;
}

Status ShardedSetSimilarityIndex::LoadShardFromPayloads(
    std::uint32_t s, const Status& store_st, const std::string& store_payload,
    const Status& index_st, const std::string& index_payload,
    const SnapshotLoadOptions& load_options, RecoveryReport* report) {
  Shard& sh = ShardAt(s);
  const std::string scope = ShardScope(base_scope_, s);

  SetStoreOptions store_options = options_.store;
  store_options.metrics_scope = scope + "/store";
  Status shard_status = store_st;
  if (shard_status.ok() && store_payload.empty()) {
    shard_status = Status::Corruption("empty shard store payload");
  }
  if ((shard_status.ok() || load_options.salvage) && !store_payload.empty()) {
    std::istringstream store_in(store_payload);
    SnapshotLoadOptions inner = load_options;
    inner.report = report;
    auto store = SetStore::Load(store_in, store_options, inner);
    if (store.ok()) {
      sh.store = std::make_unique<SetStore>(std::move(store).value());
      shard_status = Status::OK();
    } else {
      shard_status = store.status();
    }
  }
  if (!shard_status.ok()) {
    if (!load_options.salvage) return shard_status;
    sh.store = nullptr;  // unrecoverable: quarantine the whole shard
    sh.index = nullptr;
    return Status::OK();
  }

  Status idx_status = index_st;
  if (idx_status.ok() && index_payload.empty()) {
    idx_status = Status::Corruption("empty shard index payload");
  }
  if ((idx_status.ok() || load_options.salvage) && !index_payload.empty()) {
    std::istringstream index_in(index_payload);
    SnapshotLoadOptions inner = load_options;
    inner.report = report;
    auto index = SetSimilarityIndex::Load(*sh.store, index_in, inner);
    if (index.ok()) {
      sh.index = std::make_unique<SetSimilarityIndex>(std::move(index).value());
      if (layout_.points.empty()) layout_ = sh.index->layout();
      if (!embedding_.has_value()) embedding_.emplace(sh.index->embedding());
      return Status::OK();
    }
    idx_status = index.status();
  }
  if (!load_options.salvage) return idx_status;

  // The index snapshot is beyond saving but the store survived: rebuild the
  // shard's index from its records. Deterministic under the configured
  // seeds, so the shard keeps serving with zero data loss. Needs the layout
  // and the embedding, which come from the first successfully loaded shard
  // index.
  if (!layout_.points.empty()) {
    auto rebuilt = SetSimilarityIndex::Build(*sh.store, layout_,
                                             ShardIndexOptions(s));
    if (rebuilt.ok()) {
      sh.index =
          std::make_unique<SetSimilarityIndex>(std::move(rebuilt).value());
      report->signatures_rebuilt += sh.store->size();
      report->salvaged = true;
      return Status::OK();
    }
  }
  sh.store = nullptr;
  sh.index = nullptr;
  return Status::OK();
}

std::uint64_t ShardedSetSimilarityIndex::ContentDigest() const {
  std::uint64_t h = map_.ContentDigest();
  h = HashCombine(h, num_live_.load(std::memory_order_relaxed));
  const std::uint32_t n = num_shards();
  for (std::uint32_t s = 0; s < n; ++s) {
    const Shard& sh = ShardAt(s);
    h = HashCombine(h, sh.index != nullptr ? sh.index->ContentDigest() : 0);
    const std::vector<SetId> to_global = global_of_local(s);
    h = HashCombine(h, to_global.size());
    for (SetId g : to_global) h = HashCombine(h, g);
  }
  return h;
}

}  // namespace shard
}  // namespace ssr
