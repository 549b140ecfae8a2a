// Sample autocovariance / autocorrelation estimation (FFT-based).
#pragma once

#include <cstddef>
#include <vector>

#include "traffic/trace.hpp"

namespace lrd::analysis {

/// Biased sample autocovariance gamma_hat(k) = (1/n) sum (x_t - m)(x_{t+k} - m)
/// for k = 0 .. max_lag, computed in O(n log n) via the Wiener-Khinchin
/// relation. The biased (1/n) normalization keeps the estimate positive
/// semidefinite.
std::vector<double> autocovariance(const std::vector<double>& x, std::size_t max_lag);

/// Sample autocorrelation rho_hat(k) = gamma_hat(k) / gamma_hat(0).
std::vector<double> autocorrelation(const std::vector<double>& x, std::size_t max_lag);

/// Convenience overload on rate traces.
std::vector<double> autocorrelation(const traffic::RateTrace& trace, std::size_t max_lag);

}  // namespace lrd::analysis
