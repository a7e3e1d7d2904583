#include "minhash/family.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "minhash/simd.h"

namespace ssr {

std::string_view MinHashFamilyName(MinHashFamilyKind kind) {
  switch (kind) {
    case MinHashFamilyKind::kClassic:
      return "classic";
    case MinHashFamilyKind::kSuperMinHash:
      return "superminhash";
    case MinHashFamilyKind::kCMinHash:
      return "cminhash";
  }
  return "unknown";
}

Result<MinHashFamilyKind> MinHashFamilyFromByte(std::uint8_t byte) {
  if (byte > static_cast<std::uint8_t>(MinHashFamilyKind::kCMinHash)) {
    return Status::NotSupported("unknown minhash family");
  }
  return static_cast<MinHashFamilyKind>(byte);
}

Result<MinHashFamilyKind> MinHashFamilyFromName(std::string_view name) {
  for (MinHashFamilyKind kind : kAllMinHashFamilies) {
    if (name == MinHashFamilyName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown minhash family name");
}

std::uint16_t MinHashFamily::SignOne(const ElementSet& set,
                                     std::size_t i) const {
  thread_local std::vector<std::uint16_t> buf;
  buf.resize(num_hashes_);
  SignInto(set, buf.data());
  return buf[i];
}

namespace {

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/// Exact SplitMix64 sequence generator (the per-element PRG SuperMinHash's
/// Fisher-Yates draw consumes).
struct SplitMixPrg {
  std::uint64_t state;
  std::uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

// ---------------------------------------------------------------------------
// Classic k-permutation family: the paper's §3.1 embedding, bit-identical
// to the pre-v2 MinHasher (per-permutation seeds hoisted via HashFamily's
// derived array, which changes no output bit).

class ClassicFamily final : public MinHashFamily {
 public:
  ClassicFamily(std::size_t num_hashes, unsigned value_bits,
                std::uint64_t seed)
      : MinHashFamily(num_hashes, value_bits), family_(num_hashes, seed) {}

  MinHashFamilyKind kind() const override {
    return MinHashFamilyKind::kClassic;
  }

  void SignInto(const ElementSet& set, std::uint16_t* out) const override {
    if (set.empty()) {
      std::fill(out, out + num_hashes_, value_mask_);
      return;
    }
    thread_local std::vector<std::uint64_t> minima;
    minima.assign(num_hashes_, kU64Max);
    simd::ClassicMinAuto(family_.derived_seeds().data(), num_hashes_,
                         set.data(), set.size(), minima.data());
    for (std::size_t i = 0; i < num_hashes_; ++i) {
      out[i] = static_cast<std::uint16_t>(Fmix64(minima[i]) & value_mask_);
    }
  }

  /// One coordinate without signing the rest (classic is the only family
  /// whose permutations are independent enough to allow it).
  std::uint16_t SignOne(const ElementSet& set, std::size_t i) const override {
    if (set.empty()) return value_mask_;
    std::uint64_t min_hash = kU64Max;
    for (ElementId e : set) {
      const std::uint64_t h = family_.Hash(i, e);
      if (h < min_hash) min_hash = h;
    }
    return static_cast<std::uint16_t>(Fmix64(min_hash) & value_mask_);
  }

  const HashFamily& hash_family() const { return family_; }

 private:
  HashFamily family_;
};

// ---------------------------------------------------------------------------
// SuperMinHash (Ertl 2017, arXiv:1706.05698). One pass over the elements;
// each element draws a partial Fisher-Yates permutation of the k slots and
// offers value (j, r_j) to slot p[j] at round j, with a histogram-driven
// early stop once no slot can improve. The slot values are encoded as
// integers v = (j << 40) | top-40-bits(r_j) so that ordering matches the
// paper's r_j + j and two sets produce equal slot values iff the same
// (element, round) pair won — which is what the agreement estimator needs.

class SuperMinHashFamily final : public MinHashFamily {
 public:
  SuperMinHashFamily(std::size_t num_hashes, unsigned value_bits,
                     std::uint64_t seed)
      : MinHashFamily(num_hashes, value_bits),
        element_seed_(SplitMix64(seed ^ 0x50e21feaa7b8d1c3ULL)) {}

  MinHashFamilyKind kind() const override {
    return MinHashFamilyKind::kSuperMinHash;
  }

  void SignInto(const ElementSet& set, std::uint16_t* out) const override {
    const std::size_t k = num_hashes_;
    if (set.empty()) {
      std::fill(out, out + k, value_mask_);
      return;
    }
    // Scratch is per-thread: Sign must stay const and reentrant for the
    // parallel builder and the batch executor.
    thread_local std::vector<std::uint64_t> h;
    thread_local std::vector<std::uint32_t> p;
    thread_local std::vector<std::uint64_t> q;
    thread_local std::vector<std::uint32_t> hist;
    h.assign(k, kU64Max);
    p.assign(k, 0);
    q.assign(k, 0);
    hist.assign(k, 0);
    hist[k - 1] = static_cast<std::uint32_t>(k);
    std::size_t a = k - 1;

    std::uint64_t gen = 0;
    for (ElementId e : set) {
      ++gen;
      SplitMixPrg prg{Fmix64(e ^ element_seed_)};
      for (std::size_t j = 0; j <= a; ++j) {
        // One draw feeds both the rank (top 40 bits) and the Fisher-Yates
        // index: Lemire's multiply-shift on the low 24 bits replaces a
        // hardware division, and k <= 2^16 keeps the map's bias below
        // 2^-8 of a slot. This inner loop is the family's entire cost, so
        // the draw count and the divide dominate ns/set.
        const std::uint64_t r = prg.Next();
        const std::size_t l =
            j + static_cast<std::size_t>(
                    ((r & 0xffffffULL) * static_cast<std::uint64_t>(k - j)) >>
                    24);
        if (q[j] != gen) {
          q[j] = gen;
          p[j] = static_cast<std::uint32_t>(j);
        }
        if (q[l] != gen) {
          q[l] = gen;
          p[l] = static_cast<std::uint32_t>(l);
        }
        std::swap(p[j], p[l]);
        const std::size_t slot = p[j];
        const std::uint64_t v =
            (static_cast<std::uint64_t>(j) << 40) | (r >> 24);
        if (v < h[slot]) {
          const std::size_t j_old = std::min<std::size_t>(
              static_cast<std::size_t>(h[slot] >> 40), k - 1);
          h[slot] = v;
          if (j < j_old) {
            --hist[j_old];
            ++hist[j];
            while (a > 0 && hist[a] == 0) --a;
          }
        }
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = static_cast<std::uint16_t>(Fmix64(h[i]) & value_mask_);
    }
  }

 private:
  std::uint64_t element_seed_;
};

// ---------------------------------------------------------------------------
// C-MinHash (Li & Li 2021, arXiv:2109.03337). One full-strength sigma hash
// per element, then permutation lane i orders elements by a one-multiply
// bijective mix of sigma(e) + i*step (the circulant shift). Total multiply
// count per set: n Fmix64 + n*k CMix — roughly a third of classic's
// per-(element, lane) Fmix64, and the lane loop vectorizes (simd::CMinAuto).

class CMinHashFamily final : public MinHashFamily {
 public:
  CMinHashFamily(std::size_t num_hashes, unsigned value_bits,
                 std::uint64_t seed)
      : MinHashFamily(num_hashes, value_bits),
        sigma_derived_(SplitMix64(seed ^ 0xc1bc1bc1bc1bc1bULL)),
        step_(SplitMix64(seed ^ 0x9127ed5c0ffee123ULL) | 1ULL) {}

  MinHashFamilyKind kind() const override {
    return MinHashFamilyKind::kCMinHash;
  }

  void SignInto(const ElementSet& set, std::uint16_t* out) const override {
    const std::size_t k = num_hashes_;
    if (set.empty()) {
      std::fill(out, out + k, value_mask_);
      return;
    }
    thread_local std::vector<std::uint64_t> z;
    thread_local std::vector<std::uint64_t> minima;
    z.resize(set.size());
    for (std::size_t j = 0; j < set.size(); ++j) {
      z[j] = Fmix64(set[j] ^ sigma_derived_);
    }
    minima.assign(k, kU64Max);
    simd::CMinAuto(z.data(), set.size(), step_, k, minima.data());
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = static_cast<std::uint16_t>(Fmix64(minima[i]) & value_mask_);
    }
  }

  std::uint64_t sigma_derived() const { return sigma_derived_; }
  std::uint64_t step() const { return step_; }

 private:
  std::uint64_t sigma_derived_;  // hoisted SplitMix64 of the sigma seed
  std::uint64_t step_;           // odd circulant stride
};

}  // namespace

std::unique_ptr<MinHashFamily> MakeMinHashFamily(MinHashFamilyKind kind,
                                                 std::size_t num_hashes,
                                                 unsigned value_bits,
                                                 std::uint64_t seed) {
  switch (kind) {
    case MinHashFamilyKind::kClassic:
      return std::make_unique<ClassicFamily>(num_hashes, value_bits, seed);
    case MinHashFamilyKind::kSuperMinHash:
      return std::make_unique<SuperMinHashFamily>(num_hashes, value_bits,
                                                  seed);
    case MinHashFamilyKind::kCMinHash:
      return std::make_unique<CMinHashFamily>(num_hashes, value_bits, seed);
  }
  return nullptr;
}

}  // namespace ssr
