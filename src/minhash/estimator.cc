#include "minhash/estimator.h"

#include <cmath>

#include "util/mathutil.h"

namespace ssr {

SimilarityEstimator::SimilarityEstimator(unsigned value_bits)
    : value_bits_(value_bits),
      collision_p_(std::ldexp(1.0, -static_cast<int>(value_bits))) {}

double SimilarityEstimator::Estimate(const Signature& a,
                                     const Signature& b) const {
  const double raw = RawEstimate(a, b);
  const double corrected = (raw - collision_p_) / (1.0 - collision_p_);
  return Clamp(corrected, 0.0, 1.0);
}

double SimilarityEstimator::ConfidenceHalfWidth(std::size_t k,
                                                double delta) const {
  if (k == 0) return 1.0;
  // Hoeffding: P(|X/k - mu| >= eps) <= 2 exp(-2 k eps^2); solve for eps.
  const double d = Clamp(delta, 1e-12, 1.0);
  return std::sqrt(std::log(2.0 / d) / (2.0 * static_cast<double>(k)));
}

double SimilarityEstimator::DeviationProbabilityBound(std::size_t k,
                                                      double eps) {
  if (k == 0) return 1.0;
  return Clamp(2.0 * std::exp(-2.0 * static_cast<double>(k) * eps * eps), 0.0,
               1.0);
}

}  // namespace ssr
