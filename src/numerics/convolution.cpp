#include "numerics/convolution.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "core/status.hpp"
#include "numerics/fft.hpp"
#include "numerics/simd.hpp"

namespace lrd::numerics {

namespace {

void require_finite(const std::vector<double>& x, const char* where) {
  if (!all_finite(x))
    throw_error(make_diagnostics(ErrorCategory::kNumericalGuard, "numerics.convolution",
                                 "input sequences are finite",
                                 std::string(where) + ": non-finite (NaN/Inf) entry in input"));
}

/// FFT size for a linear convolution of output length `out_len`
/// (RealFft needs at least 2 points).
std::size_t conv_fft_size(std::size_t out_len) {
  return std::max<std::size_t>(2, next_pow2(out_len));
}

/// z^e by binary exponentiation (exact repeated multiplication, no
/// exp/log branch cuts).
std::complex<double> pow_uint(std::complex<double> z, std::size_t e) {
  std::complex<double> r{1.0, 0.0};
  while (e != 0) {
    if (e & 1) r *= z;
    z *= z;
    e >>= 1;
  }
  return r;
}

}  // namespace

std::vector<double> convolve_direct(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || b.empty()) throw std::invalid_argument("convolve_direct: empty input");
  require_finite(a, "convolve_direct");
  require_finite(b, "convolve_direct");
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += ai * b[j];
  }
  return out;
}

std::vector<double> convolve_fft(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.empty() || b.empty()) throw std::invalid_argument("convolve_fft: empty input");
  require_finite(a, "convolve_fft");
  require_finite(b, "convolve_fft");
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = conv_fft_size(out_len);
  const RealFft rfft(n);
  std::vector<std::complex<double>> fa(rfft.spectrum_size());
  std::vector<std::complex<double>> fb(rfft.spectrum_size());
  rfft.forward(a.data(), a.size(), fa.data());
  rfft.forward(b.data(), b.size(), fb.data());
  for (std::size_t k = 0; k < fa.size(); ++k) fa[k] *= fb[k];
  std::vector<double> out(n);
  rfft.inverse(fa.data(), out.data());
  out.resize(out_len);
  return out;
}

std::vector<double> self_convolve(const std::vector<double>& a, std::size_t n) {
  if (n == 0) throw std::invalid_argument("self_convolve: n must be >= 1");
  if (n == 1) return a;
  if (a.empty()) throw std::invalid_argument("self_convolve: empty input");
  require_finite(a, "self_convolve");
  const std::size_t out_len = n * (a.size() - 1) + 1;
  // Tiny outputs: repeated direct convolution is exact (integer
  // sequences stay integer) and cheaper than a transform.
  if (out_len <= 64) {
    std::vector<double> out = a;
    for (std::size_t k = 1; k < n; ++k) out = convolve_direct(out, a);
    return out;
  }
  // Spectrum powering: DFT(a^{*n}) = DFT(a)^n on a grid wide enough to
  // hold the final (not intermediate) support, so the whole job is one
  // forward transform, a pointwise power, and one inverse.
  const std::size_t nfft = conv_fft_size(out_len);
  const RealFft rfft(nfft);
  std::vector<std::complex<double>> spec(rfft.spectrum_size());
  rfft.forward(a.data(), a.size(), spec.data());
  for (auto& z : spec) z = pow_uint(z, n);
  std::vector<double> out(nfft);
  rfft.inverse(spec.data(), out.data());
  out.resize(out_len);
  return out;
}

DualKernelConvolver::DualKernelConvolver(std::vector<double> kernel_a,
                                         std::vector<double> kernel_b, std::size_t n)
    : n_(n) {
  if (kernel_a.empty() || kernel_b.empty())
    throw std::invalid_argument("DualKernelConvolver: empty kernel");
  if (kernel_a.size() != kernel_b.size())
    throw std::invalid_argument("DualKernelConvolver: kernels must have equal length");
  if (n < 2 || !is_pow2(n))
    throw std::invalid_argument("DualKernelConvolver: n must be a power of two >= 2");
  require_finite(kernel_a, "DualKernelConvolver");
  require_finite(kernel_b, "DualKernelConvolver");
  plan_ = &fft_plan(n_);
  // Full spectra so round_trip can index bin n - k without wrapping
  // logic; built once per convolver, so the cold complex transform is
  // fine. A kernel longer than n wraps mod n (accumulated, since several
  // taps can land on one point): the wrapped kernel's n-point DFT equals
  // the full kernel's transform at the n-th roots of unity, which is what
  // an n-point circular convolution multiplies by.
  spec_a_.assign(n_, std::complex<double>{});
  spec_b_.assign(n_, std::complex<double>{});
  for (std::size_t i = 0; i < kernel_a.size(); ++i) spec_a_[i % n_] += kernel_a[i];
  for (std::size_t i = 0; i < kernel_b.size(); ++i) spec_b_[i % n_] += kernel_b[i];
  plan_->forward(spec_a_.data());
  plan_->forward(spec_b_.data());
}

const std::complex<double>* DualKernelConvolver::round_trip(Workspace& ws) const {
  if (ws.freq.size() != n_ || ws.prod.size() != n_)
    throw std::invalid_argument("DualKernelConvolver::round_trip: workspace is not n points");
  // The caller packed x = a + i b in bit-reversed order; the spectrum X
  // comes out in natural order.
  const std::uint32_t* rev = plan_->bitrev();
  std::complex<double>* x = ws.freq.data();
  std::complex<double>* y = ws.prod.data();
  plan_->forward_from_bitrev(x);
  // Split X into the spectra A, B of the two real signals (conjugate
  // symmetry), multiply by the kernel spectra, and repack Y = A Ka + i B Kb
  // whose inverse carries a * ka in its real part and b * kb in its
  // imaginary part. Bin k of Y goes to y[rev[k]], where the inverse
  // transform's stages read it. Bins 0 and n/2 are their own mirrors;
  // the kernel table multiplies the pairs (k, n - k) in between.
  const std::size_t half = n_ / 2;
  {
    const double a0 = x[0].real();
    const double b0 = x[0].imag();
    const std::complex<double> ya = a0 * spec_a_[0];
    const std::complex<double> yb = b0 * spec_b_[0];
    y[rev[0]] = {ya.real() - yb.imag(), ya.imag() + yb.real()};
    const double ah = x[half].real();
    const double bh = x[half].imag();
    const std::complex<double> yah = ah * spec_a_[half];
    const std::complex<double> ybh = bh * spec_b_[half];
    y[rev[half]] = {yah.real() - ybh.imag(), yah.imag() + ybh.real()};
  }
  simd::active_fft_kernels().spectrum_multiply(x, spec_a_.data(), spec_b_.data(), rev, n_, 1,
                                               half, y);
  plan_->inverse_from_bitrev(y);
  return y;
}

}  // namespace lrd::numerics
