// Probability mass function over uniformly spaced support points.
//
// Used for occupancy distributions on a Grid (support = {0, d, 2d, ... B})
// and for marginal rate distributions after superposition. Offsets allow
// supports that do not start at zero (e.g. the increment pmf w(i) with
// i in [-M, M]).
#pragma once

#include <cstddef>
#include <vector>

#include "core/status.hpp"

namespace lrd::numerics {

/// Health summary of a raw mass vector — the numbers the solver's
/// per-iteration guardrails look at.
struct MassHealth {
  double mass = 0.0;       ///< Compensated sum of all entries.
  double min_entry = 0.0;  ///< Most negative entry (0 when none are negative).
  bool finite = true;      ///< False if any entry is NaN or +/-Inf.
};

/// Single-pass inspection of a mass vector.
MassHealth inspect_mass(const std::vector<double>& probs) noexcept;

/// Guardrail check for a probability vector: every entry finite, no entry
/// below -`negative_tolerance`, and total mass within `mass_tolerance` of
/// one. Returns ok, or a kNumericalGuard diagnostic naming the violated
/// invariant, tagged with `component`.
lrd::Status check_pmf_health(const std::vector<double>& probs, double mass_tolerance,
                             double negative_tolerance, const char* component);

/// Pmf with mass `probs()[k]` at value `origin() + k * step()`.
class Pmf {
 public:
  Pmf(double origin, double step, std::vector<double> probs);

  double origin() const noexcept { return origin_; }
  double step() const noexcept { return step_; }
  std::size_t size() const noexcept { return probs_.size(); }
  const std::vector<double>& probs() const noexcept { return probs_; }
  double value(std::size_t k) const noexcept { return origin_ + static_cast<double>(k) * step_; }

  /// Sum of all masses (1 for a proper pmf; callers may hold sub-pmfs).
  double total_mass() const noexcept;

  double mean() const noexcept;
  double variance() const noexcept;

  /// Rescales masses so they sum to one. Throws if total mass is ~0.
  void normalize();

  /// Pr{X <= x} (sums masses at support points <= x + tiny tolerance).
  double cdf(double x) const noexcept;

  /// Smallest support value v with Pr{X <= v} >= p (p in (0, 1]).
  double quantile(double p) const;

  /// Convolution of two pmfs with identical step, by the exact direct
  /// path. Support origins add.
  friend Pmf convolve(const Pmf& a, const Pmf& b);

  /// n-fold self-convolution (distribution of the sum of n iid copies).
  Pmf self_convolve(std::size_t n) const;

  /// Affine map of the support: value -> scale * value + shift.
  /// Masses are unchanged; step becomes |scale| * step. scale must be != 0.
  /// Negative scale reverses the support order.
  Pmf affine(double scale, double shift) const;

  /// Total variation distance between two pmfs on the same lattice.
  friend double total_variation(const Pmf& a, const Pmf& b);

 private:
  double origin_;
  double step_;
  std::vector<double> probs_;
};

Pmf convolve(const Pmf& a, const Pmf& b);
double total_variation(const Pmf& a, const Pmf& b);

}  // namespace lrd::numerics
