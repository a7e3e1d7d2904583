#include "core/hash_table.h"

#include <algorithm>
#include <utility>

#include "fault/fault_injector.h"
#include "util/hash.h"
#include "util/mathutil.h"

namespace ssr {

SidHashTable::SidHashTable(std::size_t num_buckets) {
  const std::size_t n = static_cast<std::size_t>(
      NextPowerOfTwo(num_buckets == 0 ? 1 : num_buckets));
  slots_ = std::make_unique<std::atomic<Slot>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  num_buckets_ = n;
  mask_ = n - 1;
}

SidHashTable::~SidHashTable() {
  if (slots_ == nullptr) return;
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    FreeSlot(slots_[i].load(std::memory_order_relaxed));
  }
}

SidHashTable::SidHashTable(SidHashTable&& other) noexcept
    : slots_(std::move(other.slots_)),
      num_buckets_(other.num_buckets_),
      mask_(other.mask_),
      size_(other.size_.load(std::memory_order_relaxed)),
      manager_(other.manager_) {
  other.num_buckets_ = 0;
}

SidHashTable& SidHashTable::operator=(SidHashTable&& other) noexcept {
  if (this != &other) {
    if (slots_ != nullptr) {
      for (std::size_t i = 0; i < num_buckets_; ++i) {
        FreeSlot(slots_[i].load(std::memory_order_relaxed));
      }
    }
    slots_ = std::move(other.slots_);
    num_buckets_ = other.num_buckets_;
    mask_ = other.mask_;
    size_.store(other.size_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    manager_ = other.manager_;
    other.num_buckets_ = 0;
  }
  return *this;
}

void SidHashTable::PublishSlot(std::size_t i, Slot replacement) {
  if (manager_ == nullptr) {
    // Build mode: single-threaded ownership, no reader to order against.
    FreeSlot(slots_[i].load(std::memory_order_relaxed));
    slots_[i].store(replacement, std::memory_order_relaxed);
    return;
  }
  const Slot old = slots_[i].exchange(replacement, std::memory_order_seq_cst);
  if (old == 0 || IsInline(old)) return;
  Bucket* bucket = HeapBucket(old);
  manager_->Retire([bucket] { delete bucket; });
}

void SidHashTable::Insert(std::uint64_t key_hash, SetId sid) {
  const std::size_t i = BucketIndex(key_hash);
  const Entry entry{Fingerprint(key_hash), sid};
  const Slot slot = slots_[i].load(std::memory_order_relaxed);
  if (slot == 0) {
    PublishSlot(i, InlineSlot(entry));
  } else if (IsInline(slot)) {
    PublishSlot(i, HeapSlot(new Bucket{InlineEntry(slot), entry}));
  } else if (manager_ == nullptr) {
    // Build mode: single-threaded ownership, edit in place.
    HeapBucket(slot)->push_back(entry);
  } else {
    // COW mode: publish a replacement, retire the old bucket.
    auto* grown = new Bucket(*HeapBucket(slot));
    grown->push_back(entry);
    PublishSlot(i, HeapSlot(grown));
  }
  size_.fetch_add(1, std::memory_order_relaxed);
}

bool SidHashTable::Erase(std::uint64_t key_hash, SetId sid) {
  const std::size_t i = BucketIndex(key_hash);
  const std::uint16_t fp = Fingerprint(key_hash);
  auto matches = [&](const Entry& e) {
    return e.sid == sid && e.fingerprint == fp;
  };
  const Slot slot = slots_[i].load(std::memory_order_relaxed);
  if (slot == 0) return false;
  if (IsInline(slot)) {
    if (!matches(InlineEntry(slot))) return false;
    PublishSlot(i, 0);
  } else {
    Bucket& bucket = *HeapBucket(slot);
    auto it = std::find_if(bucket.begin(), bucket.end(), matches);
    if (it == bucket.end()) return false;
    if (bucket.size() == 2) {
      // The survivor goes back inline.
      PublishSlot(i, InlineSlot(bucket[it == bucket.begin() ? 1 : 0]));
    } else if (manager_ == nullptr) {
      bucket.erase(it);
    } else {
      auto* shrunk = new Bucket(bucket);
      shrunk->erase(shrunk->begin() + (it - bucket.begin()));
      PublishSlot(i, HeapSlot(shrunk));
    }
  }
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t SidHashTable::Probe(std::uint64_t key_hash,
                                std::vector<SetId>* out) const {
  // Latency-only fault site: a kLatency schedule here simulates a slow
  // bucket page. Error kinds are deliberately ignored — the in-memory table
  // itself cannot fail; loss is modeled one level up ("sfi/probe_table").
  // SimilarityFilterIndex::SimVectorInto checks a whole group of tables'
  // "sfi/probe_table" before it probes any of them, so this site's checks
  // come after the group's. The two sites share the injector's RNG, so the
  // order matters only when both are armed with probability schedules; no
  // test arms this one.
  {
    fault::FaultInjector& injector = fault::FaultInjector::Default();
    if (injector.enabled()) injector.Check("hash_table/probe");
  }
  const std::uint16_t fp = Fingerprint(key_hash);
  std::size_t bucket_size = 0;
  VisitSlot(LoadSlot(BucketIndex(key_hash)),
            [&](const Entry* entries, std::size_t count) {
              for (std::size_t j = 0; j < count; ++j) {
                if (entries[j].fingerprint == fp) {
                  out->push_back(entries[j].sid);
                }
              }
              bucket_size = count;
            });
  return bucket_size;
}

std::size_t SidHashTable::max_bucket_size() const {
  std::size_t max_size = 0;
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    VisitSlot(LoadSlot(i), [&](const Entry*, std::size_t count) {
      max_size = std::max(max_size, count);
    });
  }
  return max_size;
}

std::uint64_t SidHashTable::ContentDigest() const {
  std::uint64_t h = SplitMix64(num_buckets_);
  for (std::size_t i = 0; i < num_buckets_; ++i) {
    VisitSlot(LoadSlot(i), [&](const Entry* entries, std::size_t count) {
      h = HashCombine(h, count);
      for (std::size_t j = 0; j < count; ++j) {
        h = HashCombine(h, (static_cast<std::uint64_t>(entries[j].fingerprint)
                            << 48) ^
                               static_cast<std::uint64_t>(entries[j].sid));
      }
    });
  }
  return h;
}

}  // namespace ssr
