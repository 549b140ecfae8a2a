#include "analysis/acf.hpp"

#include <complex>
#include <stdexcept>

#include "core/status.hpp"
#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/special_functions.hpp"

namespace lrd::analysis {

std::vector<double> autocovariance(const std::vector<double>& x, std::size_t max_lag) {
  const std::size_t n = x.size();
  if (n == 0) throw std::invalid_argument("autocovariance: empty series");
  if (max_lag >= n) throw std::invalid_argument("autocovariance: max_lag must be < series length");
  if (!numerics::all_finite(x))
    throw_error(make_diagnostics(ErrorCategory::kNumericalGuard, "analysis.acf",
                                 "input series is finite",
                                 "autocovariance: non-finite (NaN/Inf) entry in series"));

  const double mean = numerics::neumaier_sum(x) / static_cast<double>(n);
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) centered[i] = x[i] - mean;

  // Wiener-Khinchin: ACF = IFFT(|FFT(x_padded)|^2); pad to avoid circular
  // wrap. The power spectrum is real and even, so both directions fit the
  // plan-cached real transform (half the work of the complex round-trip).
  const std::size_t m = numerics::next_pow2(2 * n);
  const numerics::RealFft rfft(m);
  std::vector<std::complex<double>> spec(rfft.spectrum_size());
  rfft.forward(centered.data(), centered.size(), spec.data());
  for (auto& z : spec) z = {std::norm(z), 0.0};
  std::vector<double> corr(m);
  rfft.inverse(spec.data(), corr.data());

  std::vector<double> out(max_lag + 1);
  for (std::size_t k = 0; k <= max_lag; ++k) out[k] = corr[k] / static_cast<double>(n);
  return out;
}

std::vector<double> autocorrelation(const std::vector<double>& x, std::size_t max_lag) {
  auto gamma = autocovariance(x, max_lag);
  const double g0 = gamma[0];
  if (g0 <= 0.0) throw std::domain_error("autocorrelation: zero-variance series");
  for (double& g : gamma) g /= g0;
  return gamma;
}

std::vector<double> autocorrelation(const traffic::RateTrace& trace, std::size_t max_lag) {
  return autocorrelation(trace.rates(), max_lag);
}

}  // namespace lrd::analysis
