#include "core/sfi.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "storage/page.h"
#include "util/hash.h"
#include "util/mathutil.h"

namespace ssr {

namespace {
// Tables per stage group of SimVectorInto, whose keys live on the stack.
// 16 is the table count of ssr_bench's near-duplicate SFI (point 0.8), so
// one group covers such a probe whole; it measured best there.
constexpr std::size_t kProbeGroup = 16;
}  // namespace

std::size_t SimilarityFilterIndex::SidsPerPage() {
  return kPageSize / sizeof(SetId);
}

Result<SimilarityFilterIndex> SimilarityFilterIndex::Create(
    const Embedding& embedding, const SfiParams& params,
    std::size_t expected_sets) {
  if (params.s_star <= 0.0 || params.s_star >= 1.0) {
    return Status::InvalidArgument("s_star must be in (0, 1)");
  }
  if (params.l < 1) {
    return Status::InvalidArgument("l must be >= 1");
  }
  FilterFunction filter =
      params.r == 0 ? FilterFunction::ForTurningPoint(params.s_star, params.l)
                    : FilterFunction(params.r, params.l);
  std::size_t num_buckets = params.num_buckets;
  if (num_buckets == 0) {
    // One expected sid per bucket keeps chains short; the paper sizes
    // buckets so no overflow chains are needed.
    num_buckets = expected_sets < 16 ? 16 : expected_sets;
  }
  return SimilarityFilterIndex(embedding, params, filter, num_buckets,
                               params.seed);
}

SimilarityFilterIndex::SimilarityFilterIndex(const Embedding& embedding,
                                             SfiParams params,
                                             FilterFunction filter,
                                             std::size_t num_buckets,
                                             std::uint64_t seed)
    : embedding_(&embedding), params_(params), filter_(filter) {
  Rng rng(seed);
  samplers_.reserve(filter_.l());
  tables_.reserve(filter_.l());
  for (std::size_t i = 0; i < filter_.l(); ++i) {
    samplers_.emplace_back(embedding, filter_.r(), rng);
    tables_.emplace_back(num_buckets);
  }
}

void SimilarityFilterIndex::Insert(SetId sid, const Signature& sig) {
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    tables_[i].Insert(samplers_[i].ExtractKeyHash(sig), sid);
  }
  num_entries_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t SimilarityFilterIndex::Erase(SetId sid, const Signature& sig) {
  std::size_t removed = 0;
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i].Erase(samplers_[i].ExtractKeyHash(sig), sid)) ++removed;
  }
  if (removed == tables_.size() &&
      num_entries_.load(std::memory_order_relaxed) > 0) {
    num_entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  return removed;
}

void SortUniqueSids(std::vector<SetId>* sids) {
  // One bit per sid, plus the indices of the words holding a bit. Both are
  // sized before the first bit is set, so nothing below can throw with a
  // bit set, and every set bit is cleared again as it is emitted.
  thread_local std::vector<std::uint64_t> words;
  thread_local std::vector<std::uint32_t> touched;
  if (sids->empty()) return;
  const SetId max_sid = *std::max_element(sids->begin(), sids->end());
  const std::size_t num_words = static_cast<std::size_t>(max_sid) / 64 + 1;
  if (words.size() < num_words) words.resize(num_words, 0);
  touched.clear();
  touched.reserve(std::min(sids->size(), num_words));
  for (SetId sid : *sids) {
    std::uint64_t& word = words[sid / 64];
    if (word == 0) touched.push_back(sid / 64);
    word |= std::uint64_t{1} << (sid % 64);
  }
  std::sort(touched.begin(), touched.end());
  // The union is no longer than the input, so the emit stays within the
  // vector's capacity.
  sids->clear();
  for (std::uint32_t w : touched) {
    for (std::uint64_t bits = std::exchange(words[w], 0); bits != 0;
         bits &= bits - 1) {
      sids->push_back(w * 64 + static_cast<SetId>(std::countr_zero(bits)));
    }
  }
}

std::vector<SetId> SimilarityFilterIndex::SimVector(
    const Signature& query, bool complemented, SfiProbeStats* stats) const {
  std::vector<SetId> out;
  SimVectorInto(query, complemented, stats, &out);
  return out;
}

void SimilarityFilterIndex::SimVectorInto(const Signature& query,
                                          bool complemented,
                                          SfiProbeStats* stats,
                                          std::vector<SetId>* out) const {
  // Complemented probes come from a DFI wrapper (Theorem 2); plain probes
  // are SFI queries. Counted process-wide.
  static obs::Counter* const sfi_probes =
      obs::MetricsRegistry::Default().GetCounter("ssr_sfi_probes_total");
  static obs::Counter* const dfi_probes =
      obs::MetricsRegistry::Default().GetCounter("ssr_dfi_probes_total");
  (complemented ? dfi_probes : sfi_probes)->Increment();
  out->clear();
  const std::size_t sids_per_page = SidsPerPage();
  std::size_t pages = 0;
  std::size_t scanned = 0;
  std::size_t failed = 0;
  fault::FaultInjector& injector = fault::FaultInjector::Default();
  const bool faults_on = injector.enabled();
  // The tables are probed in groups of kProbeGroup, in three stages per
  // group: every key (prefetching its bucket word), then every heap bucket
  // the words point to, then the probes. A table's reads are a chain of
  // dependent misses (word, bucket, entries); the stages overlap the
  // group's chains instead of paying them one table at a time.
  for (std::size_t first = 0; first < tables_.size(); first += kProbeGroup) {
    const std::size_t last = std::min(tables_.size(), first + kProbeGroup);
    std::size_t live[kProbeGroup] = {};  // the group's tables not lost
    std::uint64_t keys[kProbeGroup] = {};
    std::size_t n = 0;
    for (std::size_t i = first; i < last; ++i) {
      // Any fired fault at the per-table site loses this table's bucket for
      // this probe; the caller sees tables_failed and can degrade or retry.
      if (faults_on && injector.Check("sfi/probe_table").has_value()) {
        ++failed;
        continue;
      }
      keys[n] = samplers_[i].ExtractKeyHash(query, complemented);
      tables_[i].PrefetchSlot(keys[n]);
      live[n++] = i;
    }
    for (std::size_t j = 0; j < n; ++j) {
      tables_[live[j]].PrefetchBucket(keys[j]);
    }
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t bucket_size = tables_[live[j]].Probe(keys[j], out);
      scanned += bucket_size;
      pages += 1 + (bucket_size > 0 ? (bucket_size - 1) / sids_per_page : 0);
    }
  }
  SortUniqueSids(out);
  if (stats != nullptr) {
    stats->bucket_accesses = tables_.size();
    stats->bucket_pages = pages;
    stats->sids_scanned = scanned;
    stats->tables_failed = failed;
  }
}

std::uint64_t SimilarityFilterIndex::ContentDigest() const {
  std::uint64_t h = SplitMix64(tables_.size());
  for (const SidHashTable& table : tables_) {
    h = HashCombine(h, table.ContentDigest());
  }
  return h;
}

}  // namespace ssr
