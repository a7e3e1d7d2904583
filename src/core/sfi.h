// Similarity Filter Index SFI(s*) — Section 4.1. A bank of l hash tables,
// each keyed on r randomly sampled bits of the embedded vectors. Two vectors
// with Hamming similarity s collide in at least one table with probability
// p_{r,l}(s) = 1 − (1 − s^r)^l, an S-curve turning at s*. SimVector(q)
// returns the union of the l probed buckets: with high probability, the sids
// of all vectors at least s*-similar to q.

#ifndef SSR_CORE_SFI_H_
#define SSR_CORE_SFI_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/bit_sampler.h"
#include "core/filter_function.h"
#include "core/hash_table.h"
#include "hamming/embedding.h"
#include "minhash/signature.h"
#include "util/result.h"
#include "util/types.h"

namespace ssr {

/// SFI construction parameters.
struct SfiParams {
  /// Turning point s* in Hamming-similarity space (the composite index
  /// converts from set-similarity space via Theorem 1 before building).
  double s_star = 0.9;

  /// Number of hash tables l (the unit of the space budget).
  std::size_t l = 10;

  /// Bits sampled per table. 0 = solve from (s_star, l) via
  /// p_{r,l}(s*) = 1/2.
  std::size_t r = 0;

  /// Buckets per table. 0 = sized to the expected number of sets.
  std::size_t num_buckets = 0;

  /// Seed for the bit-position samples.
  std::uint64_t seed = 0x5f1ca7b1e5ULL;
};

/// Probe-side statistics of one SimVector call.
struct SfiProbeStats {
  std::size_t bucket_accesses = 0;  // == l
  std::size_t bucket_pages = 0;     // pages read if tables are disk-resident
  std::size_t sids_scanned = 0;     // total bucket entries before dedup
  std::size_t tables_failed = 0;    // tables lost to injected faults
                                    // ("sfi/probe_table" site): the union is
                                    // then a subset of the true SimVector
};

/// Sorts `*sids` and drops its duplicates, as std::sort + std::unique
/// would: the probe union of SimVectorInto. One pass sets a bit per sid in
/// a per-thread bitmap; only the distinct 64-sid words it touched are
/// sorted, then emitted in order. The bitmap holds one bit per sid up to
/// the largest sid the thread has seen, and is all-zero whenever the call
/// returns.
void SortUniqueSids(std::vector<SetId>* sids);

/// The Similarity Filter Index primitive.
class SimilarityFilterIndex {
 public:
  /// Creates an empty SFI over `embedding` expecting ~`expected_sets`
  /// entries (drives default bucket count). Fails on parameter errors.
  static Result<SimilarityFilterIndex> Create(const Embedding& embedding,
                                              const SfiParams& params,
                                              std::size_t expected_sets);

  /// Inserts a set's signature under `sid` into all l tables.
  void Insert(SetId sid, const Signature& sig);

  /// Inserts `sid` into table `table_idx` only. The parallel builder shards
  /// tables across workers: each worker calls this for its disjoint slice of
  /// table indices, walking sids in the same (ascending) order as the serial
  /// build, so bucket contents come out identical without any locking.
  /// Callers must follow up with NoteBulkEntries() exactly once per sid.
  void InsertIntoTable(std::size_t table_idx, SetId sid, const Signature& sig) {
    tables_[table_idx].Insert(samplers_[table_idx].ExtractKeyHash(sig), sid);
  }

  /// Accounts `count` sets inserted via InsertIntoTable (size bookkeeping
  /// that Insert() does implicitly).
  void NoteBulkEntries(std::size_t count) {
    num_entries_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Switches every table to copy-on-write mutations with epoch-deferred
  /// reclamation (see SidHashTable::SetEpochManager). Call once after the
  /// bulk build, before the first concurrent reader.
  void SetEpochManager(exec::EpochManager* manager) {
    for (SidHashTable& table : tables_) table.SetEpochManager(manager);
  }

  /// Removes `sid` (signature must match the inserted one). Returns the
  /// number of tables it was removed from (== l if present).
  std::size_t Erase(SetId sid, const Signature& sig);

  /// SimVector(s*, q): the union of the l probed buckets, sorted and
  /// deduplicated (SortUniqueSids). If `complemented`, probes with the complement of the
  /// query's embedded vector (the DFI path, Theorem 2).
  std::vector<SetId> SimVector(const Signature& query,
                               bool complemented = false,
                               SfiProbeStats* stats = nullptr) const;

  /// Allocation-free SimVector: clears `*out` and fills it with the sorted,
  /// deduplicated union. Reusing one scratch vector across the l tables, all
  /// FIs of a query, and successive queries drops the per-probe allocation
  /// churn to zero once the vector's capacity has warmed up. The tables are
  /// read in groups of 16, in three stages per group: every key (each
  /// prefetching its bucket word), then a prefetch of every heap bucket
  /// those words point to, then the probes. So a group's cache misses
  /// overlap instead of chaining table after table. The answer and stats
  /// equal a one-table-at-a-time loop's. Under COW-mode mutations the
  /// caller holds an exec::EpochGuard across the call.
  void SimVectorInto(const Signature& query, bool complemented,
                     SfiProbeStats* stats, std::vector<SetId>* out) const;

  /// The analytical filter function of this instance.
  const FilterFunction& filter() const { return filter_; }

  const SfiParams& params() const { return params_; }
  std::size_t l() const { return tables_.size(); }
  std::size_t r() const { return filter_.r(); }
  std::size_t size() const {
    return num_entries_.load(std::memory_order_relaxed);
  }

  // Moves happen only while singly-owned (Create/Result plumbing); the
  // relaxed transfer of the atomic entry count is exact there.
  SimilarityFilterIndex(SimilarityFilterIndex&& other) noexcept
      : embedding_(other.embedding_),
        params_(other.params_),
        filter_(std::move(other.filter_)),
        samplers_(std::move(other.samplers_)),
        tables_(std::move(other.tables_)),
        num_entries_(other.num_entries_.load(std::memory_order_relaxed)) {}
  SimilarityFilterIndex& operator=(SimilarityFilterIndex&& other) noexcept {
    embedding_ = other.embedding_;
    params_ = other.params_;
    filter_ = std::move(other.filter_);
    samplers_ = std::move(other.samplers_);
    tables_ = std::move(other.tables_);
    num_entries_.store(other.num_entries_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    return *this;
  }

  /// How many sids fit in one bucket page (for I/O accounting of
  /// disk-resident tables; "sid_count" in Section 4.1).
  static std::size_t SidsPerPage();

  /// Order-sensitive digest over all l tables' contents; equal digests mean
  /// identical bucket layouts (used to verify parallel/serial build parity).
  std::uint64_t ContentDigest() const;

 private:
  SimilarityFilterIndex(const Embedding& embedding, SfiParams params,
                        FilterFunction filter, std::size_t num_buckets,
                        std::uint64_t seed);

  const Embedding* embedding_;  // not owned; outlives the index
  SfiParams params_;
  FilterFunction filter_;
  std::vector<BitSampler> samplers_;
  std::vector<SidHashTable> tables_;
  std::atomic<std::size_t> num_entries_{0};
};

}  // namespace ssr

#endif  // SSR_CORE_SFI_H_
