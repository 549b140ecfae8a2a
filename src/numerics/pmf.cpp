#include "numerics/pmf.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "numerics/convolution.hpp"
#include "numerics/special_functions.hpp"

namespace lrd::numerics {

MassHealth inspect_mass(const std::vector<double>& probs) noexcept {
  MassHealth h;
  CompensatedSum acc;
  for (double p : probs) {
    if (!std::isfinite(p)) {
      h.finite = false;
      continue;
    }
    acc.add(p);
    if (p < h.min_entry) h.min_entry = p;
  }
  h.mass = acc.value();
  return h;
}

namespace {

std::string format_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

lrd::Status check_pmf_health(const std::vector<double>& probs, double mass_tolerance,
                             double negative_tolerance, const char* component) {
  const MassHealth h = inspect_mass(probs);
  auto fail = [&](const char* invariant, std::string message) {
    return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kNumericalGuard,
                                                      component, invariant, std::move(message)));
  };
  if (!h.finite) return fail("pmf entries are finite", "NaN/Inf entry in probability vector");
  if (h.min_entry < -negative_tolerance)
    return fail("pmf entries are non-negative",
                "entry " + format_g(h.min_entry) + " below -" + format_g(negative_tolerance));
  if (std::abs(h.mass - 1.0) > mass_tolerance)
    return fail("pmf conserves unit mass", "total mass " + format_g(h.mass) +
                                               " deviates from 1 by more than " +
                                               format_g(mass_tolerance));
  return lrd::Status::ok();
}

Pmf::Pmf(double origin, double step, std::vector<double> probs)
    : origin_(origin), step_(step), probs_(std::move(probs)) {
  if (probs_.empty()) throw std::invalid_argument("Pmf: empty support");
  if (!(step_ > 0.0)) throw std::invalid_argument("Pmf: step must be > 0");
  for (double p : probs_) {
    if (!(p >= -1e-12) || !std::isfinite(p)) throw std::invalid_argument("Pmf: negative or non-finite mass");
  }
  // Clamp tiny negative round-off from FFT convolutions.
  for (double& p : probs_) p = std::max(p, 0.0);
}

double Pmf::total_mass() const noexcept { return neumaier_sum(probs_); }

double Pmf::mean() const noexcept {
  CompensatedSum acc;
  for (std::size_t k = 0; k < probs_.size(); ++k) acc.add(probs_[k] * value(k));
  const double m = total_mass();
  return m > 0.0 ? acc.value() / m : 0.0;
}

double Pmf::variance() const noexcept {
  const double mu = mean();
  CompensatedSum acc;
  for (std::size_t k = 0; k < probs_.size(); ++k) {
    const double d = value(k) - mu;
    acc.add(probs_[k] * d * d);
  }
  const double m = total_mass();
  return m > 0.0 ? acc.value() / m : 0.0;
}

void Pmf::normalize() {
  const double m = total_mass();
  if (m <= 1e-300) throw std::domain_error("Pmf::normalize: total mass is zero");
  for (double& p : probs_) p /= m;
}

double Pmf::cdf(double x) const noexcept {
  const double tol = step_ * 1e-9;
  CompensatedSum acc;
  for (std::size_t k = 0; k < probs_.size(); ++k) {
    if (value(k) <= x + tol) acc.add(probs_[k]);
  }
  return std::min(acc.value(), 1.0);
}

double Pmf::quantile(double p) const {
  if (!(p > 0.0 && p <= 1.0)) throw std::domain_error("Pmf::quantile: p must be in (0, 1]");
  CompensatedSum acc;
  for (std::size_t k = 0; k < probs_.size(); ++k) {
    acc.add(probs_[k]);
    if (acc.value() >= p - 1e-12) return value(k);
  }
  return value(probs_.size() - 1);
}

Pmf convolve(const Pmf& a, const Pmf& b) {
  if (std::abs(a.step_ - b.step_) > 1e-12 * std::max(a.step_, b.step_))
    throw std::invalid_argument("convolve(Pmf): steps differ");
  auto probs = convolve_direct(a.probs_, b.probs_);
  return Pmf(a.origin_ + b.origin_, a.step_, std::move(probs));
}

Pmf Pmf::self_convolve(std::size_t n) const {
  if (n == 0) throw std::invalid_argument("Pmf::self_convolve: n must be >= 1");
  auto probs = lrd::numerics::self_convolve(probs_, n);
  return Pmf(origin_ * static_cast<double>(n), step_, std::move(probs));
}

Pmf Pmf::affine(double scale, double shift) const {
  if (scale == 0.0) throw std::invalid_argument("Pmf::affine: scale must be != 0");
  if (scale > 0.0) return Pmf(origin_ * scale + shift, step_ * scale, probs_);
  // Negative scale: reverse so support stays increasing.
  std::vector<double> rev(probs_.rbegin(), probs_.rend());
  const double last = value(probs_.size() - 1);
  return Pmf(last * scale + shift, step_ * (-scale), std::move(rev));
}

double total_variation(const Pmf& a, const Pmf& b) {
  if (std::abs(a.step_ - b.step_) > 1e-12 * std::max(a.step_, b.step_) ||
      std::abs(a.origin_ - b.origin_) > 1e-9 * a.step_ || a.size() != b.size())
    throw std::invalid_argument("total_variation: pmfs must share a lattice");
  CompensatedSum acc;
  for (std::size_t k = 0; k < a.size(); ++k) acc.add(std::abs(a.probs_[k] - b.probs_[k]));
  return acc.value() / 2.0;
}

}  // namespace lrd::numerics
