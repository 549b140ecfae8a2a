// Finite marginal distribution of the fluid rate: Pr{lambda = lambda_i} = pi_i.
//
// This is the Pi / Lambda pair of the paper's source model, together with
// the two transformations studied in Section III:
//   * scaling    — lambda_i' = mean + a * (lambda_i - mean), same pi
//     (narrows or widens the marginal around a fixed mean);
//   * superposition — the distribution of the average of n i.i.d. copies
//     (statistical multiplexing of n streams with per-stream buffer and
//     service rate held constant; implemented by n-fold convolution and
//     rescaling to the original mean, as in the paper).
#pragma once

#include <cstddef>
#include <vector>

#include "numerics/random.hpp"

namespace lrd::dist {

class Marginal {
 public:
  /// Rates may be in any order; they are sorted and exact duplicates are
  /// merged. Probabilities must be non-negative and sum to ~1 (they are
  /// renormalized). Rates must be >= 0 (fluid rates).
  Marginal(std::vector<double> rates, std::vector<double> probs);

  /// Degenerate (single-rate) marginal.
  static Marginal constant(double rate);

  std::size_t size() const noexcept { return rates_.size(); }
  const std::vector<double>& rates() const noexcept { return rates_; }
  const std::vector<double>& probs() const noexcept { return probs_; }

  double mean() const noexcept { return mean_; }
  double variance() const noexcept { return variance_; }
  double stddev() const noexcept;
  double min_rate() const noexcept { return rates_.front(); }
  double peak_rate() const noexcept { return rates_.back(); }

  /// Service rate that yields utilization rho: c = mean / rho.
  double service_rate_for_utilization(double rho) const;

  /// Scaling transformation with factor a > 0 (a < 1 narrows, a > 1
  /// widens). Rates that would become negative are clamped to 0; the
  /// paper's factors (0.5 .. 1.5) keep all rates positive for its traces.
  Marginal scaled(double factor) const;

  /// Marginal of the average of n i.i.d. streams. The support is first
  /// snapped onto a fine lattice with mean-preserving two-point mass
  /// splitting, convolved n times via FFT, rescaled by 1/n, then
  /// compressed back to ~`out_points` support points, each representing
  /// the conditional mean of its mass bucket (so the overall mean is
  /// preserved exactly up to rounding).
  Marginal superposed(std::size_t n, std::size_t out_points = 64,
                      std::size_t lattice_points = 2048) const;

  /// Draws a rate index from Pi (alias method would be overkill here; the
  /// generator hot paths build their own AliasTable from probs()).
  std::size_t sample_index(numerics::Rng& rng) const;
  double sample(numerics::Rng& rng) const { return rates_[sample_index(rng)]; }

 private:
  std::vector<double> rates_;
  std::vector<double> probs_;
  double mean_ = 0.0;
  double variance_ = 0.0;

  void recompute_moments();
};

}  // namespace lrd::dist
