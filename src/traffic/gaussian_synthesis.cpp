#include "traffic/gaussian_synthesis.hpp"

#include <cmath>
#include <stdexcept>

namespace lrd::traffic {

std::vector<double> sample_gaussian_from_acf(const std::vector<double>& acov, std::size_t n,
                                             numerics::Rng& rng) {
  if (n == 0) throw std::invalid_argument("sample_gaussian_from_acf: n must be >= 1");
  if (acov.size() < n)
    throw std::invalid_argument("sample_gaussian_from_acf: need acov up to lag n-1");
  if (!(acov[0] > 0.0)) throw std::domain_error("sample_gaussian_from_acf: gamma(0) must be > 0");

  std::vector<double> x(n);
  std::vector<double> phi(n, 0.0), phi_prev(n, 0.0);  // phi[j] ~ phi_{t, j+1}
  double v = acov[0];                                 // innovation variance nu_{t}
  x[0] = std::sqrt(v) * rng.normal();

  for (std::size_t t = 1; t < n; ++t) {
    // Reflection coefficient phi_{t,t}.
    double num = acov[t];
    for (std::size_t j = 1; j < t; ++j) num -= phi_prev[j - 1] * acov[t - j];
    const double kappa = num / v;
    phi[t - 1] = kappa;
    for (std::size_t j = 1; j < t; ++j)
      phi[j - 1] = phi_prev[j - 1] - kappa * phi_prev[t - j - 1];
    v *= (1.0 - kappa * kappa);
    if (!(v > 0.0))
      throw std::domain_error("sample_gaussian_from_acf: sequence not positive definite");

    // Conditional mean of X_t given the past.
    double mean = 0.0;
    for (std::size_t j = 1; j <= t; ++j) mean += phi[j - 1] * x[t - j];
    x[t] = mean + std::sqrt(v) * rng.normal();
    std::swap(phi, phi_prev);
    phi = phi_prev;  // keep both holding phi_t for the next iteration
  }
  return x;
}

}  // namespace lrd::traffic
