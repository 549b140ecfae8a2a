#include "dist/truncated_pareto.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/status.hpp"

namespace lrd::dist {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void bad_param(std::string invariant, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s = %g", name, value);
  throw lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                               "dist.truncated_pareto", std::move(invariant), buf));
}

}  // namespace

TruncatedPareto::TruncatedPareto(double theta, double alpha, double cutoff)
    : theta_(theta), alpha_(alpha), cutoff_(cutoff) {
  if (!(theta > 0.0) || !std::isfinite(theta)) bad_param("theta is finite and > 0", "theta", theta);
  // The paper works with 1 < alpha < 2 (heavy untruncated tail); alpha >= 2
  // is accepted for the light-tailed comparison models, alpha <= 1 is not
  // (the mean would diverge and the loss functional is undefined).
  if (!(alpha > 1.0) || !std::isfinite(alpha)) bad_param("alpha > 1 (paper: 1 < alpha < 2)", "alpha", alpha);
  if (!(cutoff > 0.0)) bad_param("cutoff is > 0 (possibly +inf)", "cutoff", cutoff);
  if (!std::isinf(cutoff_)) excess_tail_ = std::pow((cutoff_ + theta_) / theta_, 1.0 - alpha_);
}

double TruncatedPareto::atom_mass() const noexcept {
  if (std::isinf(cutoff_)) return 0.0;
  return std::pow((cutoff_ + theta_) / theta_, -alpha_);
}

double TruncatedPareto::ccdf_open(double t) const {
  if (t <= 0.0) return 1.0;
  if (t >= cutoff_) return 0.0;
  return std::pow((t + theta_) / theta_, -alpha_);
}

double TruncatedPareto::ccdf_closed(double t) const {
  if (t <= 0.0) return 1.0;
  if (t > cutoff_) return 0.0;
  return std::pow((t + theta_) / theta_, -alpha_);
}

void TruncatedPareto::ccdf_both(double t, double& open, double& closed) const {
  if (t <= 0.0) {
    open = closed = 1.0;
  } else if (t > cutoff_) {
    open = closed = 0.0;
  } else {
    closed = std::pow((t + theta_) / theta_, -alpha_);
    open = t >= cutoff_ ? 0.0 : closed;
  }
}

double TruncatedPareto::excess_mean(double u) const {
  if (u < 0.0) u = 0.0;
  if (u >= cutoff_) return 0.0;
  const double head = std::pow((u + theta_) / theta_, 1.0 - alpha_);
  return theta_ / (alpha_ - 1.0) * (head - excess_tail_);
}

double TruncatedPareto::mean() const { return excess_mean(0.0); }

double TruncatedPareto::variance() const {
  if (std::isinf(cutoff_)) {
    if (alpha_ <= 2.0) return kInf;
    const double m = mean();
    const double second = 2.0 * theta_ * theta_ / ((alpha_ - 1.0) * (alpha_ - 2.0));
    return second - m * m;
  }
  // E[T^2] = 2 * theta^alpha * int_theta^{T_c+theta} (u - theta) u^{-alpha} du.
  const double lo = theta_;
  const double hi = cutoff_ + theta_;
  double integral;
  if (std::abs(alpha_ - 2.0) < 1e-9) {
    integral = std::log(hi / lo) + theta_ * (1.0 / hi - 1.0 / lo);
  } else {
    integral = (std::pow(hi, 2.0 - alpha_) - std::pow(lo, 2.0 - alpha_)) / (2.0 - alpha_) +
               theta_ * (std::pow(hi, 1.0 - alpha_) - std::pow(lo, 1.0 - alpha_)) / (alpha_ - 1.0);
  }
  const double second = 2.0 * std::pow(theta_, alpha_) * integral;
  const double m = mean();
  return second - m * m;
}

double TruncatedPareto::sample(numerics::Rng& rng) const {
  // Inverse transform of the untruncated Pareto, clipped to the cutoff;
  // the clipped mass is exactly the atom at T_c.
  const double u = rng.uniform_open();
  const double t = theta_ * (std::pow(u, -1.0 / alpha_) - 1.0);
  return std::min(t, cutoff_);
}

double TruncatedPareto::alpha_from_hurst(double hurst) {
  if (!(hurst > 0.5 && hurst < 1.0))
    bad_param("Hurst parameter is in (1/2, 1)", "hurst", hurst);
  return 3.0 - 2.0 * hurst;
}

double TruncatedPareto::hurst_from_alpha(double alpha) {
  if (!(alpha > 1.0 && alpha < 2.0))
    bad_param("alpha is in (1, 2) for the Hurst mapping", "alpha", alpha);
  return (3.0 - alpha) / 2.0;
}

double TruncatedPareto::theta_from_mean_epoch(double mean_epoch, double alpha) {
  if (!(mean_epoch > 0.0) || !std::isfinite(mean_epoch))
    bad_param("mean epoch is finite and > 0", "mean_epoch", mean_epoch);
  if (!(alpha > 1.0)) bad_param("alpha > 1", "alpha", alpha);
  return mean_epoch * (alpha - 1.0);
}

TruncatedPareto TruncatedPareto::from_hurst(double hurst, double mean_epoch, double cutoff) {
  const double alpha = alpha_from_hurst(hurst);
  return TruncatedPareto(theta_from_mean_epoch(mean_epoch, alpha), alpha, cutoff);
}

}  // namespace lrd::dist
