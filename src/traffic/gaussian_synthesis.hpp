// Exact synthesis of stationary Gaussian processes from their
// autocovariance (Durbin-Levinson innovations): an O(n^2) reference
// that shares no code with the circulant-embedding fGn generator, so
// the two can check each other.
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/random.hpp"

namespace lrd::traffic {

/// Samples n points of a zero-mean stationary Gaussian process with the
/// given autocovariance sequence (acov[k] = gamma(k), k = 0..n-1) via the
/// Durbin-Levinson innovations recursion. Exact in distribution; O(n^2)
/// time, so intended for n up to ~2^14. Throws std::domain_error if the
/// sequence is not positive definite (innovation variance would go
/// negative).
std::vector<double> sample_gaussian_from_acf(const std::vector<double>& acov, std::size_t n,
                                             numerics::Rng& rng);

}  // namespace lrd::traffic
