// Exact fractional Gaussian noise via Davies-Harte circulant embedding.
//
// fGn is the stationary increment process of fractional Brownian motion;
// with Hurst parameter H its autocovariance at lag k (unit variance) is
//   gamma(k) = ( |k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H} ) / 2,
// which decays ~ H(2H-1) k^{2H-2} — the canonical long-range dependent
// Gaussian process. We use it as the dependence "copula" for the synthetic
// trace substitutes (see DESIGN.md §3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "numerics/random.hpp"

namespace lrd::traffic {

/// Theoretical fGn autocovariance at integer lag k for unit variance.
double fgn_autocovariance(double hurst, std::size_t lag);

/// Generates `n` samples of zero-mean, unit-variance fGn with the given
/// Hurst parameter (0 < H < 1; H = 0.5 degenerates to white noise).
///
/// Exact in distribution via circulant embedding: the embedding
/// eigenvalues of the fGn covariance are provably non-negative, so no
/// approximation is involved (tiny negative round-off is clamped).
std::vector<double> generate_fgn(std::size_t n, double hurst, numerics::Rng& rng);

}  // namespace lrd::traffic
