#include "minhash/min_hasher.h"

#include <cassert>

namespace ssr {

Status MinHashParams::Validate() const {
  if (num_hashes == 0) {
    return Status::InvalidArgument("num_hashes must be >= 1");
  }
  if (value_bits < 1 || value_bits > 16) {
    return Status::InvalidArgument("value_bits must be in [1, 16]");
  }
  return Status::OK();
}

namespace {

MinHashParams Sanitize(MinHashParams p) {
  assert(p.Validate().ok());
  if (p.num_hashes == 0) p.num_hashes = 1;
  if (p.value_bits < 1) p.value_bits = 1;
  if (p.value_bits > 16) p.value_bits = 16;
  return p;
}

}  // namespace

MinHasher::MinHasher(const MinHashParams& params)
    : params_(Sanitize(params)),
      impl_(MakeMinHashFamily(params_.family, params_.num_hashes,
                              params_.value_bits, params_.seed)),
      value_mask_(static_cast<std::uint16_t>(
          (1u << params_.value_bits) - 1u)) {}

Signature MinHasher::Sign(const ElementSet& set) const {
  Signature sig(params_.num_hashes);
  impl_->SignInto(set, &sig[0]);
  return sig;
}

std::uint16_t MinHasher::SignOne(const ElementSet& set, std::size_t i) const {
  return impl_->SignOne(set, i);
}

}  // namespace ssr
