#include "traffic/fgn.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"

namespace lrd::traffic {

double fgn_autocovariance(double hurst, std::size_t lag) {
  if (!(hurst > 0.0 && hurst < 1.0)) throw std::invalid_argument("fgn: H must be in (0, 1)");
  if (lag == 0) return 1.0;
  const double k = static_cast<double>(lag);
  const double h2 = 2.0 * hurst;
  return 0.5 * (std::pow(k + 1.0, h2) - 2.0 * std::pow(k, h2) + std::pow(k - 1.0, h2));
}

std::vector<double> generate_fgn(std::size_t n, double hurst, numerics::Rng& rng) {
  if (n == 0) throw std::invalid_argument("generate_fgn: n must be >= 1");
  if (!(hurst > 0.0 && hurst < 1.0)) throw std::invalid_argument("generate_fgn: H must be in (0, 1)");

  // The embedding size 2N must be a power of two for our FFT; generate at
  // the next power of two and truncate (truncation preserves stationarity).
  const std::size_t big_n = numerics::next_pow2(n);
  const std::size_t m = 2 * big_n;

  // First row of the circulant covariance matrix. The row is real and
  // even, so the eigenvalue transform fits the plan-cached real FFT; the
  // half-spectrum mirrors onto the upper eigenvalues.
  std::vector<double> row(m, 0.0);
  for (std::size_t j = 0; j <= big_n; ++j) row[j] = fgn_autocovariance(hurst, j);
  for (std::size_t j = 1; j < big_n; ++j) row[m - j] = row[j];

  const numerics::RealFft row_fft(m);
  std::vector<std::complex<double>> eig(row_fft.spectrum_size());
  row_fft.forward(row.data(), row.size(), eig.data());

  // Eigenvalues are real and non-negative for fGn; clamp round-off.
  std::vector<double> sqrt_eig(m);
  for (std::size_t k = 0; k <= big_n; ++k) {
    const double lambda = eig[k].real();
    sqrt_eig[k] = lambda > 0.0 ? std::sqrt(lambda) : 0.0;
  }
  for (std::size_t k = big_n + 1; k < m; ++k) sqrt_eig[k] = sqrt_eig[m - k];

  // Hermitian-symmetric Gaussian spectrum.
  std::vector<std::complex<double>> v(m);
  v[0] = sqrt_eig[0] * rng.normal();
  v[big_n] = sqrt_eig[big_n] * rng.normal();
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  for (std::size_t k = 1; k < big_n; ++k) {
    const double re = rng.normal() * inv_sqrt2;
    const double im = rng.normal() * inv_sqrt2;
    v[k] = sqrt_eig[k] * std::complex<double>{re, im};
    v[m - k] = std::conj(v[k]);
  }

  // X_j = Re[ (1/sqrt(m)) sum_k v_k e^{2 pi i jk/m} ].
  numerics::fft_inplace(v, /*inverse=*/true);
  const double scale = 1.0 / std::sqrt(static_cast<double>(m));
  std::vector<double> out(n);
  for (std::size_t j = 0; j < n; ++j) out[j] = v[j].real() * scale;
  return out;
}

}  // namespace lrd::traffic
