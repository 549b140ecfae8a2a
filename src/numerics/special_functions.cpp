#include "numerics/special_functions.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace lrd::numerics {

namespace {

// Derivative of erf: 2/sqrt(pi) * exp(-x^2).
double erf_derivative(double x) noexcept {
  return 2.0 / std::sqrt(std::numbers::pi) * std::exp(-x * x);
}

}  // namespace

double erf_inv(double y) {
  if (!(y > -1.0 && y < 1.0)) throw std::domain_error("erf_inv: argument must be in (-1, 1)");
  if (y == 0.0) return 0.0;

  // Winitzki (2008) approximation, good to ~2e-3 relative; then Newton.
  const double a = 0.147;
  const double ln1my2 = std::log1p(-y * y);
  const double t1 = 2.0 / (std::numbers::pi * a) + ln1my2 / 2.0;
  const double x0 = std::copysign(std::sqrt(std::sqrt(t1 * t1 - ln1my2 / a) - t1), y);

  double x = x0;
  for (int i = 0; i < 3; ++i) {
    const double err = std::erf(x) - y;
    const double d = erf_derivative(x);
    if (d == 0.0) break;
    x -= err / d;
  }
  return x;
}

double normal_cdf(double x) noexcept { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

namespace {

// Lower-incomplete series: P(a, x) = x^a e^-x / Gamma(a) * sum x^n / (a)_{n+1}.
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int n = 0; n < 500; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Upper-incomplete continued fraction (modified Lentz).
double gamma_q_cf(double a, double x) {
  const double tiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) d = tiny;
    c = b + an / c;
    if (std::abs(c) < tiny) c = tiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < 1e-16) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double regularized_gamma_q(double a, double x) {
  if (!(a > 0.0)) throw std::domain_error("regularized_gamma_q: a must be > 0");
  if (!(x >= 0.0)) throw std::domain_error("regularized_gamma_q: x must be >= 0");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double upper_incomplete_gamma(double a, double x) {
  return regularized_gamma_q(a, x) * std::tgamma(a);
}

double neumaier_sum(const std::vector<double>& xs) noexcept {
  CompensatedSum acc;
  for (double x : xs) acc.add(x);
  return acc.value();
}

double relative_gap(double a, double b) noexcept {
  const double mid = (std::abs(a) + std::abs(b)) / 2.0;
  if (mid == 0.0) return 0.0;
  return std::abs(a - b) / mid;
}

}  // namespace lrd::numerics
