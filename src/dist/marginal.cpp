#include "dist/marginal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "numerics/convolution.hpp"
#include "numerics/special_functions.hpp"

namespace lrd::dist {

Marginal::Marginal(std::vector<double> rates, std::vector<double> probs) {
  if (rates.empty() || rates.size() != probs.size())
    throw std::invalid_argument("Marginal: rates/probs size mismatch or empty");

  std::vector<std::size_t> order(rates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return rates[a] < rates[b]; });

  double total = 0.0;
  for (std::size_t k : order) {
    const double r = rates[k];
    const double p = probs[k];
    if (!(r >= 0.0) || !std::isfinite(r)) throw std::invalid_argument("Marginal: rates must be finite and >= 0");
    if (!(p >= 0.0) || !std::isfinite(p)) throw std::invalid_argument("Marginal: probs must be finite and >= 0");
    if (p == 0.0) continue;
    if (!rates_.empty() && r == rates_.back()) {
      probs_.back() += p;
    } else {
      rates_.push_back(r);
      probs_.push_back(p);
    }
    total += p;
  }
  if (!(total > 0.0)) throw std::invalid_argument("Marginal: total probability is zero");
  for (double& p : probs_) p /= total;
  recompute_moments();
}

Marginal Marginal::constant(double rate) { return Marginal({rate}, {1.0}); }

void Marginal::recompute_moments() {
  numerics::CompensatedSum m;
  for (std::size_t i = 0; i < rates_.size(); ++i) m.add(rates_[i] * probs_[i]);
  mean_ = m.value();
  numerics::CompensatedSum v;
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    const double d = rates_[i] - mean_;
    v.add(d * d * probs_[i]);
  }
  variance_ = v.value();
}

double Marginal::stddev() const noexcept { return std::sqrt(variance_); }

double Marginal::service_rate_for_utilization(double rho) const {
  if (!(rho > 0.0 && rho < 1.0))
    throw std::invalid_argument("Marginal: utilization must be in (0, 1)");
  if (!(mean_ > 0.0)) throw std::domain_error("Marginal: zero mean rate has no utilization");
  return mean_ / rho;
}

Marginal Marginal::scaled(double factor) const {
  if (!(factor > 0.0)) throw std::invalid_argument("Marginal::scaled: factor must be > 0");
  std::vector<double> r(rates_.size());
  for (std::size_t i = 0; i < rates_.size(); ++i)
    r[i] = std::max(0.0, mean_ + factor * (rates_[i] - mean_));
  return Marginal(std::move(r), probs_);
}

Marginal Marginal::superposed(std::size_t n, std::size_t out_points,
                              std::size_t lattice_points) const {
  if (n == 0) throw std::invalid_argument("Marginal::superposed: n must be >= 1");
  if (out_points < 2 || lattice_points < 2)
    throw std::invalid_argument("Marginal::superposed: need >= 2 output/lattice points");
  if (n == 1) return *this;

  const double lo = rates_.front();
  const double hi = rates_.back();
  if (hi == lo) return *this;  // degenerate marginal is closed under superposition

  // Mean-preserving snap of each (rate, prob) onto a uniform lattice.
  const double step = (hi - lo) / static_cast<double>(lattice_points - 1);
  std::vector<double> lattice(lattice_points, 0.0);
  for (std::size_t i = 0; i < rates_.size(); ++i) {
    const double pos = (rates_[i] - lo) / step;
    auto j = static_cast<std::size_t>(std::floor(pos));
    if (j >= lattice_points - 1) j = lattice_points - 2;
    const double frac = pos - static_cast<double>(j);
    lattice[j] += probs_[i] * (1.0 - frac);
    lattice[j + 1] += probs_[i] * frac;
  }

  // n-fold convolution: sum of n streams on lattice with origin n*lo.
  // FFT round-off can leave tiny negative coefficients; clamp them so the
  // bucket-compression below stays a valid probability vector.
  std::vector<double> conv = numerics::self_convolve(lattice, n);
  for (double& v : conv) v = std::max(v, 0.0);

  // Average of n streams: support value of index k is lo + k*step/n.
  const double out_step = step / static_cast<double>(n);

  // Compress to out_points buckets, each represented by its conditional mean.
  const std::size_t bucket = (conv.size() + out_points - 1) / out_points;
  std::vector<double> out_rates;
  std::vector<double> out_probs;
  out_rates.reserve(out_points);
  out_probs.reserve(out_points);
  for (std::size_t start = 0; start < conv.size(); start += bucket) {
    const std::size_t end = std::min(start + bucket, conv.size());
    double mass = 0.0;
    double weighted = 0.0;
    for (std::size_t k = start; k < end; ++k) {
      mass += conv[k];
      weighted += conv[k] * (lo + static_cast<double>(k) * out_step);
    }
    if (mass > 1e-15) {
      const double bucket_lo = lo + static_cast<double>(start) * out_step;
      const double bucket_hi = lo + static_cast<double>(end - 1) * out_step;
      out_rates.push_back(std::clamp(weighted / mass, bucket_lo, bucket_hi));
      out_probs.push_back(mass);
    }
  }
  return Marginal(std::move(out_rates), std::move(out_probs));
}

std::size_t Marginal::sample_index(numerics::Rng& rng) const {
  double u = rng.uniform();
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    if (u < probs_[i]) return i;
    u -= probs_[i];
  }
  return probs_.size() - 1;
}

}  // namespace lrd::dist
