// ShardedSetSimilarityIndex: the horizontal axis of the system. The
// collection is partitioned across P shards by the ShardMap's stable
// sid-hash; each shard owns a private SetStore and a SetSimilarityIndex
// built over it with the PR-4 parallel builder. A range query is answered
// by scattering it to every shard (similarity gives no shard pruning — any
// shard can hold a match) and gathering the per-shard verified answers,
// merged *in shard order* so the output never depends on completion order.
//
// Shards keep their own dense local sid spaces (SetStore requires it); the
// sharded index is the only layer that speaks global sids, translating at
// the boundary via per-shard local -> global tables. Verified answers are
// exact per shard and shards partition the collection, so the merged answer
// is set-identical to a single index / sequential scan over the same
// collection — the property the differential harness (tests/difftest/)
// pins down across P, churn, and degraded shards.
//
// Scatter/gather: every sharded query path — the serial Query here, and
// QueryRouter's Query and RunBatch — takes one ScatterPlan when it starts
// (the rebalance sequence number, the shard count, and each shard slot,
// each loaded once) and merges through one Gather over the Shard objects
// that plan loaded. The paths differ only in how they run one shard.
//
// Live mutability (see DESIGN.md §16): after EnableConcurrentWrites,
// Insert/Erase (serialized on an internal writer mutex) run concurrently
// with any number of Query/QueryRouter readers. Reader-visible state — the
// shard slot table, each shard's local->global map, and the inner indexes'
// copy-on-write structures — is epoch-protected (exec/epoch.h): readers
// pin an epoch for the duration of a scatter/gather and writers retire
// replaced structures through the manager.
//
// Online rebalance: BeginRebalance plans a ShardMap move list toward a new
// shard count, StepRebalance migrates sids one at a time (each move is
// WAL-logged — kMoveOut to the source log, then kMoveIn, the commit point,
// to the destination log — so a crash mid-rebalance recovers each sid
// fully old or fully new, never split), and FinishRebalance retires the
// old topology. Every answer whose scatter overlapped any part of a
// rebalance — even one that began and finished inside the scatter — is
// tagged `rebalancing` (and conservatively `partial`, reusing the
// degraded-shard tagging): a move can hide the moving sid from a concurrent
// scatter, so overlapped answers are partial-but-never-wrong. Begin and
// Finish each bump a rebalance sequence number (odd while one is active);
// the gather tags when the number differs from the plan's or was odd.
//
// Failure semantics: a shard can be administratively degraded (operator
// action or a salvage load that lost it). Under kPartialResults the router
// and the serial Query skip it and tag the answer (partial, degraded shard
// ids listed) — every returned sid is still verified correct, so a degraded
// answer is a subset, never a superset. Under kFailFast the query errors.

#ifndef SSR_SHARD_SHARDED_INDEX_H_
#define SSR_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/set_similarity_index.h"
#include "exec/atomic_slot_array.h"
#include "exec/epoch.h"
#include "hamming/embedding.h"
#include "shard/shard_map.h"
#include "storage/set_store.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {
namespace shard {

/// Resolves a `num_shards` knob: n > 0 is taken as-is; n == 0 means the
/// SSR_SHARDS environment variable when set to a positive integer,
/// otherwise 1 (sharding is opt-in, unlike threading).
std::uint32_t ResolveShardCount(std::uint32_t num_shards);

/// What a query does when a shard cannot answer (degraded or erroring).
enum class ShardFailurePolicy {
  /// Propagate Unavailable for the whole query.
  kFailFast,
  /// Answer from the healthy shards, tagged partial + degraded. Returned
  /// sids are verified correct; the answer is a subset, never a superset.
  kPartialResults,
};

struct ShardedIndexOptions {
  /// Shard count; 0 resolves via SSR_SHARDS (ResolveShardCount).
  std::uint32_t num_shards = 0;

  /// Seed for the ShardMap's rendezvous votes.
  std::uint64_t map_seed = ShardMap::kDefaultSeed;

  /// Per-shard index options (embedding, seed, build threads, per-shard
  /// DegradeMode, probe retry). metrics_scope is used as the *base* scope:
  /// shard s registers under "<base>/shard/<s>" (a fresh "sharded/N" base
  /// is allocated when empty).
  IndexOptions index;

  /// Per-shard store options (same base-scope treatment).
  SetStoreOptions store;

  /// Behavior when a shard cannot answer a query.
  ShardFailurePolicy on_shard_failure = ShardFailurePolicy::kPartialResults;
};

/// A sharded query answer: global sids plus the scatter/gather bookkeeping.
struct ShardedQueryResult {
  std::vector<SetId> sids;  // verified global sids, ascending
  /// Stats merged deterministically in shard order: counters and I/O sum
  /// across shards; plan/lo/up come from the last answering shard (all
  /// shards share the layout, so their plans agree); degraded is the OR.
  QueryStats stats;
  std::vector<QueryStats> per_shard;  // by shard; default-initialized if dead
  std::vector<Status> shard_status;   // by shard
  std::vector<std::uint32_t> degraded_shards;  // shards that did not answer
  bool partial = false;  // some shard's sids may be missing from `sids`
  /// An online rebalance overlapped this query. The answer is still a
  /// verified subset of the true answer (never wrong), but a sid whose
  /// move committed mid-scatter may be missing — so `partial` is set too.
  bool rebalancing = false;
};

/// Aggregate build statistics. Shards build one after another on the host,
/// but deploy to separate machines: the modeled makespan is the slowest
/// shard's modeled build time, the figure the shard_scaling bench charts.
struct ShardedBuildStats {
  std::vector<BuildStats> per_shard;
  double wall_seconds = 0.0;
  double modeled_makespan_seconds = 0.0;
};

/// Progress of the online rebalance state machine.
struct RebalanceStatus {
  bool active = false;
  std::uint32_t target_shards = 0;
  std::size_t moves_planned = 0;
  std::size_t moves_done = 0;     // migrations committed (kMoveIn logged)
  std::size_t moves_skipped = 0;  // sid erased / re-placed before its turn
  /// The post-Begin checkpoint has been taken (or is not needed because no
  /// shard WAL is attached); StepRebalance refuses moves until it is.
  bool checkpointed = false;
  /// A move failed *after* its WAL commit point: in-memory state is behind
  /// the log and the rebalance is frozen — recover from checkpoint + WALs.
  bool wedged = false;
};

class ShardedSetSimilarityIndex {
  struct Shard;  // one shard's store, index and local -> global table

 public:
  /// Partitions `sets` (global sid = position) across the shards and builds
  /// every shard's index. The per-shard builds use options.index.num_threads
  /// workers each (the PR-4 parallel builder), one shard at a time.
  static Result<ShardedSetSimilarityIndex> Build(
      const SetCollection& sets, const IndexLayout& layout,
      const ShardedIndexOptions& options);

  /// Switches every reader-visible structure (shard slots, local->global
  /// maps, the inner indexes) to epoch-protected publication under
  /// `manager` (Default() when null). Call once, after Build/Load and
  /// before the first concurrent reader or writer. Required before
  /// BeginRebalance or any mutation that overlaps queries.
  void EnableConcurrentWrites(exec::EpochManager* manager = nullptr);
  exec::EpochManager* epoch_manager() const { return epoch_manager_; }

  /// Routes the set to its shard's store + index. `sid` is the caller's
  /// global sid (AlreadyExists if live). Global sids must be fresh — the
  /// sharded index never reuses them, mirroring SetStore's dense allocator.
  /// Thread-safe against queries and other mutations after
  /// EnableConcurrentWrites (mutations serialize on the writer mutex).
  Status Insert(SetId sid, const ElementSet& set);

  /// Erases a global sid from its shard. NotFound when `sid` was never
  /// inserted or is already erased — same contract as
  /// SetSimilarityIndex::Erase. Same thread-safety as Insert.
  Status Erase(SetId sid);

  /// Serial reference scatter/gather: queries the planned shards in order
  /// on the calling thread, each inside the gather. Identical answers (and
  /// failure semantics) to QueryRouter::Query — the differential harness
  /// holds the two equal. A malformed query (ValidateRangeQuery) fails
  /// InvalidArgument before any shard is consulted. Each shard signs the
  /// query itself.
  Result<ShardedQueryResult> Query(const ElementSet& query, double sigma1,
                                   double sigma2) const;

  /// One scatter's view of the topology. Construction pins an epoch (after
  /// EnableConcurrentWrites) and then loads, each exactly once, the
  /// rebalance sequence number, the shard count, and every shard slot, and
  /// records which shards can answer. Gather merges through the same Shard
  /// objects, so a scatter never mixes two topologies. Holds the pin until
  /// destroyed: build it on the stack of the thread that scatters.
  class ScatterPlan {
   public:
    explicit ScatterPlan(const ShardedSetSimilarityIndex& index);
    ScatterPlan(const ScatterPlan&) = delete;
    ScatterPlan& operator=(const ScatterPlan&) = delete;

    std::uint32_t num_shards() const {
      return static_cast<std::uint32_t>(slots_.size());
    }
    /// Shard s's index when it answers this scatter; null when the shard is
    /// degraded or dead (Gather fails it under the policy) or its slot was
    /// retired by a shrink (Gather skips it).
    const SetSimilarityIndex* index(std::uint32_t s) const {
      return slots_[s].index;
    }

   private:
    friend class ShardedSetSimilarityIndex;
    struct Slot {
      const Shard* shard = nullptr;               // null: shrink-retired
      const SetSimilarityIndex* index = nullptr;  // null: cannot answer
    };
    std::optional<exec::EpochGuard> pin_;
    std::uint64_t rebalance_seq_ = 0;
    std::vector<Slot> slots_;
  };

  /// Gathers one scatter in shard order: for each shard the plan found
  /// answering, merges what `answer_of(s)` returns (called once per such
  /// shard, in order — a path may run the shard right there); records a
  /// failed answer, or a shard that cannot answer, under the failure policy
  /// (kFailFast returns Unavailable at the first one); skips shrink-retired
  /// slots. Then sorts and dedups the merged sids and tags the answer
  /// `rebalancing` + `partial` when any rebalance overlapped the scatter.
  Result<ShardedQueryResult> Gather(
      const ScatterPlan& plan,
      const std::function<Result<QueryResult>(std::uint32_t)>& answer_of)
      const;

  /// The embedding every shard signs with. Shards agree on EmbeddingParams:
  /// Build gives them one, Load rejects skew (NotSupported), and grown
  /// shards and salvage rebuilds take the loaded shards' params, never the
  /// caller's. QueryRouter signs each query once with it and hands the
  /// signature to every shard. Null only when a salvage load kept no shard
  /// index.
  const Embedding* embedding() const {
    return embedding_.has_value() ? &*embedding_ : nullptr;
  }

  std::uint32_t num_shards() const {
    return num_shards_.load(std::memory_order_seq_cst);
  }
  std::size_t num_live_sets() const {
    return num_live_.load(std::memory_order_relaxed);
  }
  const ShardMap& shard_map() const { return map_; }
  const ShardedBuildStats& build_stats() const { return build_stats_; }
  const std::string& metrics_scope() const { return base_scope_; }

  /// Per-shard access. A dead shard (lost in a salvage load) has null
  /// store/index and degraded == true. Concurrent callers hold an
  /// exec::EpochGuard across the use of the returned pointers (shard
  /// objects are epoch-retired when a shrink completes). Query paths use a
  /// ScatterPlan instead, which loads each slot once.
  const SetStore* shard_store(std::uint32_t s) const {
    const Shard* sh = shards_.Get(s);
    return sh == nullptr ? nullptr : sh->store.get();
  }
  const SetSimilarityIndex* shard_index(std::uint32_t s) const {
    const Shard* sh = shards_.Get(s);
    return sh == nullptr ? nullptr : sh->index.get();
  }
  /// Local sid -> global sid table for shard `s`, materialized (by local
  /// sid; dead locals keep their entry). A point-in-time copy: the live
  /// table is a lock-free slot array that concurrent writers keep extending.
  std::vector<SetId> global_of_local(std::uint32_t s) const;

  /// Attaches shard `s`'s write-ahead log to the mutation path. Records
  /// are appended *here*, at the sharded layer, carrying global sids —
  /// the inner per-shard indexes never get their own WAL (no double
  /// logging) — after precondition checks and before any state changes:
  /// a failed append fails the mutation with the routing tables, store,
  /// and index untouched. Runtime-only, like AttachWal on the inner
  /// index; pass nullptr to detach. The writer must outlive the index or
  /// be detached first. Not thread-safe against in-flight mutations —
  /// attach during setup (or between Begin/Step for a grown shard, from
  /// the rebalance driver thread).
  void AttachShardWal(std::uint32_t s, WalWriter* wal) {
    std::lock_guard<std::mutex> lock(writer_mu_);
    if (shard_wals_.size() <= s) shard_wals_.resize(s + 1, nullptr);
    shard_wals_[s] = wal;
  }
  WalWriter* shard_wal(std::uint32_t s) const {
    return s < shard_wals_.size() ? shard_wals_[s] : nullptr;
  }

  /// Marks a shard (un)available. A degraded shard is skipped (partial,
  /// tagged) or fails the query, per ShardFailurePolicy.
  void SetShardDegraded(std::uint32_t s, bool degraded);
  bool shard_degraded(std::uint32_t s) const {
    const Shard* sh = shards_.Get(s);
    return sh == nullptr || sh->index == nullptr ||
           sh->degraded.load(std::memory_order_relaxed);
  }

  ShardFailurePolicy on_shard_failure() const {
    return options_.on_shard_failure;
  }

  // --- Online rebalance (the move state machine) ---------------------
  //
  // Protocol: BeginRebalance(P') plans the ShardMap move list and (when
  // growing) publishes the new, still-empty shards so fresh inserts and
  // queries see them. The caller attaches WALs to any new shards, takes a
  // checkpoint (so recovery knows the new topology and every log's records
  // are anchored to one consistent cut), then drains the plan with
  // StepRebalance while readers and writers keep running, and calls
  // FinishRebalance to adopt the final shard count (shrink retires the
  // drained shards through the epoch manager). A crash anywhere in between
  // recovers to a consistent per-sid assignment — kMoveIn is the commit
  // point — and a re-run RebalanceTo converges the remainder.
  //
  // The post-Begin checkpoint is *enforced*, not advisory: with any shard
  // WAL attached, StepRebalance and FinishRebalance refuse until the
  // caller either declares the checkpoint via MarkRebalanceCheckpointed
  // or installs a SetRebalanceCheckpointHook (which BeginRebalance and
  // RebalanceTo invoke automatically). Without it, a crash could leave
  // move records from two topologies interleaved across logs with no
  // consistent replay cut.

  /// Starts a rebalance toward `new_num_shards`. FailedPrecondition when
  /// one is already active; Unavailable when any shard is degraded (its
  /// sids cannot be moved safely). When a checkpoint hook is installed it
  /// runs here — after the target topology is published, before any move
  /// can execute; its failure is returned and the rebalance stays active
  /// but un-checkpointed (StepRebalance refuses until the caller marks).
  Status BeginRebalance(std::uint32_t new_num_shards);

  /// Declares that the post-Begin checkpoint is durably written. With any
  /// shard WAL attached this is required before the first StepRebalance;
  /// without WALs it is implicit. FailedPrecondition when no rebalance is
  /// active.
  Status MarkRebalanceCheckpointed();

  /// Installs the durability callback BeginRebalance runs (without the
  /// writer lock, so it may AttachShardWal to grown shards) right after
  /// publishing the target topology: typically attach-WALs + write a
  /// sharded checkpoint. Success marks the rebalance checkpointed, which
  /// makes RebalanceTo safe end-to-end in durable deployments. Set during
  /// setup; not thread-safe against an in-flight BeginRebalance.
  void SetRebalanceCheckpointHook(std::function<Status()> hook) {
    checkpoint_hook_ = std::move(hook);
  }

  /// Executes up to `max_moves` planned migrations; returns the number of
  /// moves still pending. Call repeatedly (typically from one driver
  /// thread) until it reports 0, then FinishRebalance.
  Result<std::size_t> StepRebalance(std::size_t max_moves);

  /// Completes the rebalance: verifies the plan drained, adopts the target
  /// shard count, and (shrink) epoch-retires the emptied shards.
  Status FinishRebalance();

  /// Begin + drain + finish in one call (the offline-convenience path;
  /// still safe under concurrent readers/writers).
  Status RebalanceTo(std::uint32_t new_num_shards);

  RebalanceStatus rebalance_status() const;
  bool rebalancing() const {
    return rebalance_seq_.load(std::memory_order_seq_cst) % 2 == 1;
  }

  /// Recovery-side replay of a kMoveIn record from shard `dest`'s WAL:
  /// relocates `sid` (wherever it currently lives, usually `from_shard`)
  /// into shard `dest` with `set` as its payload. Idempotent —
  /// AlreadyExists when the sid already lives at `dest`.
  Status ApplyMoveIn(std::uint32_t dest, SetId sid, std::uint32_t from_shard,
                     const ElementSet& set);

  /// For callers that gather by hand (Gather does both steps itself):
  /// merges shard `s`'s verified local answer into `result` through the
  /// shard's current slot — local sids mapped to global and appended, stats
  /// merged — and FinishGather sorts and dedups the sids, settles the
  /// aggregate stats, and tags the answer when a rebalance is active now.
  void GatherShardAnswer(std::uint32_t s, QueryResult&& answer,
                         ShardedQueryResult* result) const;
  void FinishGather(ShardedQueryResult* result) const;

  /// Persists the whole sharded index as one checksummed v2 snapshot: the
  /// shard map and routing tables first, then one nested store + index
  /// snapshot pair per shard, each in its own checksummed section. With
  /// SnapshotLoadOptions::salvage, a damaged shard section quarantines
  /// *that shard only* — it comes back dead (degraded, its sids lost) while
  /// every other shard loads intact and keeps serving; the RecoveryReport
  /// counts the quarantined records. The caller quiesces mutations and any
  /// active rebalance driver for the duration of the save (the durability
  /// protocol's checkpoint contract). Load keeps the embedding the shards
  /// were saved under — for shards grown or rebuilt later too — whatever
  /// `options.index.embedding` says; shards saved under different
  /// EmbeddingParams are NotSupported.
  Status SaveTo(std::ostream& out) const;
  static Result<ShardedSetSimilarityIndex> Load(
      std::istream& in, const ShardedIndexOptions& options,
      const SnapshotLoadOptions& load_options = {});

  /// Digest over the shard map, routing tables, and every live shard's
  /// index digest; equal iff the sharded structures are bit-identical.
  std::uint64_t ContentDigest() const;

  // Moves happen only while singly-owned (Load/Recover plumbing) — never
  // concurrently with readers, writers, or an active rebalance.
  ShardedSetSimilarityIndex(ShardedSetSimilarityIndex&& other) noexcept;
  ShardedSetSimilarityIndex& operator=(
      ShardedSetSimilarityIndex&& other) noexcept;
  ~ShardedSetSimilarityIndex();

 private:
  struct Shard {
    std::unique_ptr<SetStore> store;
    std::unique_ptr<SetSimilarityIndex> index;
    /// Local sid -> global sid (kInvalidSetId = never populated). Dead
    /// locals keep their last entry, exactly like the old vector did — the
    /// store is the liveness truth.
    exec::AtomicSlotArray<SetId> global_of_local{kInvalidSetId};
    /// Logical length of global_of_local (== the store's next local sid).
    std::atomic<std::size_t> local_count{0};
    std::atomic<bool> degraded{false};
  };
  struct LocalRef {
    std::uint32_t shard = ShardMap::kUnassigned;
    SetId local = kInvalidSetId;
  };

  ShardedSetSimilarityIndex(ShardedIndexOptions options, IndexLayout layout);

  /// Allocates shard s's Shard object + store and publishes it in the slot
  /// table (does not bump num_shards_).
  Status CreateShard(std::uint32_t s);

  /// Options for building shard s's index: the caller's index options under
  /// the shard's metrics scope, signing with embedding_ once it is known.
  IndexOptions ShardIndexOptions(std::uint32_t s) const;

  Shard& ShardAt(std::uint32_t s) const { return *shards_.Get(s); }

  /// Merges shard `s`'s answer into `result` through `shard`, the Shard
  /// object whose index produced it.
  void MergeShardAnswer(std::uint32_t s, const Shard& shard,
                        QueryResult&& answer,
                        ShardedQueryResult* result) const;
  /// Records shard `s` as unanswered under the failure policy. Returns the
  /// Unavailable status to propagate when the policy is kFailFast.
  Status GatherShardFailure(std::uint32_t s, Status status,
                            ShardedQueryResult* result) const;
  /// Sorts + dedups the merged global sids (a mid-move sid can surface from
  /// both its old and new shard), settles the aggregate stats, and tags the
  /// answer when the rebalance sequence number now differs from
  /// `planned_seq` or `planned_seq` is odd.
  void FinishGather(std::uint64_t planned_seq,
                    ShardedQueryResult* result) const;

  /// BeginRebalance minus the checkpoint hook: plans the move list and
  /// publishes the target topology under the writer lock. The hook runs in
  /// the public wrapper, outside writer_mu_, because it typically calls
  /// AttachShardWal (which takes the lock).
  Status BeginRebalanceImpl(std::uint32_t new_num_shards);

  /// One migration, writer lock held. Returns true when the move executed
  /// (vs. skipped because the sid is no longer at move.from).
  Result<bool> ExecuteMoveLocked(const ShardMove& move);

  /// ApplyMoveIn body with writer_mu_ held.
  Status ApplyMoveInLocked(std::uint32_t dest, SetId sid,
                           const ElementSet& set);

  /// Inserts an already-routed (sid, set) into shard `s`, publishing the
  /// local->global mapping before the index entry so concurrent gathers
  /// never see an unmapped local. Writer lock held.
  Status InsertIntoShardLocked(std::uint32_t s, SetId sid,
                               const ElementSet& set);

  /// Removes `sid`'s record from its current shard (index + store; the
  /// local->global entry intentionally stays, dead). Writer lock held.
  Status RemoveFromShardLocked(const LocalRef& ref);

  /// Reconstructs shard `s` from its two nested snapshot payloads (store,
  /// index) during Load. `store_st`/`index_st` are the outer section
  /// statuses. Strict loads propagate the first failure; salvage loads try
  /// inner page-level recovery, then an index rebuild from the surviving
  /// store, and finally quarantine the whole shard (null store/index).
  Status LoadShardFromPayloads(std::uint32_t s, const Status& store_st,
                               const std::string& store_payload,
                               const Status& index_st,
                               const std::string& index_payload,
                               const SnapshotLoadOptions& load_options,
                               RecoveryReport* report);

  void FreeShards();

  ShardedIndexOptions options_;
  IndexLayout layout_;
  /// Set by Build from its first shard, by Load from the first loaded shard
  /// index (alongside layout_); never changes afterwards.
  std::optional<Embedding> embedding_;
  std::string base_scope_;
  ShardMap map_;
  /// Reader path: shards_.Get(s) for s < num_shards_. Slots are published
  /// once and stay valid while any reader could hold them (epoch-retired
  /// on shrink). owned_shards_ is the writer-side ownership list.
  exec::AtomicSlotArray<Shard*> shards_{nullptr};
  std::atomic<std::uint32_t> num_shards_{0};
  std::vector<std::unique_ptr<Shard>> owned_shards_;
  std::vector<WalWriter*> shard_wals_;  // by shard; not owned, runtime-only
  std::vector<LocalRef> local_of_global_;  // by global sid; writer-side only
  std::atomic<std::size_t> num_live_{0};
  ShardedBuildStats build_stats_;

  /// Serializes Insert/Erase/ApplyMoveIn and the rebalance state machine.
  mutable std::mutex writer_mu_;
  exec::EpochManager* epoch_manager_ = nullptr;  // not owned; set once

  // Rebalance state (writer_mu_ except the sequence number, which readers
  // tag answers from).
  /// Bumped by BeginRebalance and again by FinishRebalance, so it is odd
  /// while a rebalance is active. Finish bumps it after it stores the
  /// shrunk count and nulls the retired slots; Begin after it publishes
  /// grown ones.
  std::atomic<std::uint64_t> rebalance_seq_{0};
  std::uint32_t rebalance_target_ = 0;
  std::vector<ShardMove> pending_moves_;
  std::size_t next_move_ = 0;
  std::size_t moves_done_ = 0;
  std::size_t moves_skipped_ = 0;
  /// True once the post-Begin checkpoint is declared (or vacuously, when
  /// no shard WAL is attached at Begin). StepRebalance and FinishRebalance
  /// refuse while false.
  bool rebalance_checkpointed_ = true;
  /// Set when a move fails after its kMoveIn append: the log says the move
  /// committed but memory disagrees, so no further rebalance work is safe.
  bool rebalance_wedged_ = false;
  std::function<Status()> checkpoint_hook_;
};

}  // namespace shard
}  // namespace ssr

#endif  // SSR_SHARD_SHARDED_INDEX_H_
