// Special functions and numerically careful primitives used across the
// library: inverse error function (Eq. 26 of the paper needs erf^-1),
// compensated summation, and log-space helpers.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace lrd::numerics {

/// Inverse error function on (-1, 1).
///
/// Winitzki-style initial approximation polished with two Newton steps on
/// erf(x) - y = 0; relative error < 1e-12 across (-1 + 1e-12, 1 - 1e-12).
/// Throws std::domain_error outside (-1, 1).
double erf_inv(double y);

/// Inverse of the standard normal CDF (probit), Phi^-1(p), p in (0, 1).
double normal_quantile(double p);

/// Standard normal CDF.
double normal_cdf(double x) noexcept;

/// Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a),
/// a > 0, x >= 0. Series expansion for x < a + 1, Lentz continued
/// fraction otherwise; absolute error < 1e-12.
double regularized_gamma_q(double a, double x);

/// Upper incomplete gamma Gamma(a, x) = Q(a, x) * Gamma(a).
double upper_incomplete_gamma(double a, double x);

/// Neumaier compensated sum: accurate sum of a vector of doubles.
double neumaier_sum(const std::vector<double>& xs) noexcept;

/// Running compensated accumulator (Neumaier variant of Kahan summation).
/// `add` is defined here so the solver's per-epoch loops (fold atoms, mass
/// scan, loss functional) inline it instead of calling across the library.
class CompensatedSum {
 public:
  void add(double x) noexcept {
    const double t = sum_ + x;
    if (std::abs(sum_) >= std::abs(x)) {
      comp_ += (sum_ - t) + x;
    } else {
      comp_ += (x - t) + sum_;
    }
    sum_ = t;
  }
  double value() const noexcept { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// log(exp(a) + exp(b)) without overflow.
double log_add_exp(double a, double b) noexcept;

/// Relative gap |a - b| / midpoint, with midpoint = (|a| + |b|)/2.
/// Returns 0 when both are 0.
double relative_gap(double a, double b) noexcept;

}  // namespace lrd::numerics
