#include "numerics/fft_plan.hpp"

#include <cmath>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "numerics/fft.hpp"
#include "numerics/simd.hpp"

namespace lrd::numerics {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  if (!is_pow2(n)) throw std::invalid_argument("FftPlan: size must be a power of two");
  if (n > (std::size_t{1} << 31)) throw std::invalid_argument("FftPlan: size too large");
  bitrev_.resize(n);
  bitrev_[0] = 0;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
  // Direct per-entry evaluation: a cos/sin recurrence would accumulate
  // rounding error across the table and the table is built only once.
  twiddle_.resize(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) / static_cast<double>(n);
    twiddle_[k] = {std::cos(ang), std::sin(ang)};
  }
  // Pair consecutive radix-2 stages into fused radix-2^2 passes. With an
  // odd stage count the leftover is the twiddle-free first stage (w_0 =
  // 1), which the first pass (len == 4) runs before its butterflies.
  std::size_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  const bool odd = (log2n % 2) == 1;
  for (std::size_t len = odd ? 4 : 2; len * 2 <= n; len *= 4) {
    // Contiguous per-stage twiddles so the vector kernels load the k and
    // k + 1 lanes with one unit-stride read; values are copied from the
    // strided base table, so fused and unfused stages see identical
    // doubles. wc = -i * wb folds the (k + len/2)-th twiddle of the
    // 2*len stage into a precomputed constant.
    Stage s{len, stage_twiddle_.size(), 0, 0, odd && stages_.empty()};
    const std::size_t q = len / 2;
    for (std::size_t k = 0; k < q; ++k) stage_twiddle_.push_back(twiddle_[k * (n_ / len)]);
    s.wb = stage_twiddle_.size();
    for (std::size_t k = 0; k < q; ++k) stage_twiddle_.push_back(twiddle_[k * (n_ / (2 * len))]);
    s.wc = stage_twiddle_.size();
    for (std::size_t k = 0; k < q; ++k) {
      const std::complex<double> wb = stage_twiddle_[s.wb + k];
      stage_twiddle_.push_back({wb.imag(), -wb.real()});
    }
    stages_.push_back(s);
  }
}

void FftPlan::bit_reverse(std::complex<double>* data) const noexcept {
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(data[i], data[j]);
  }
}

void FftPlan::stages(std::complex<double>* data, bool inverse) const noexcept {
  // n == 2 is one radix-2 butterfly with no pass to join; n == 1 is the
  // identity.
  if (n_ == 2) simd::detail::radix2_pass_scalar(data, n_);
  const simd::FftKernels& kernels = simd::active_fft_kernels();
  const std::complex<double>* tw = stage_twiddle_.data();
  for (const Stage& s : stages_)
    kernels.radix4_pass(data, n_, s.len, tw + s.wa, tw + s.wb, tw + s.wc, inverse, s.radix2_first);
}

void FftPlan::forward(std::complex<double>* data) const noexcept {
  bit_reverse(data);
  forward_from_bitrev(data);
}

void FftPlan::inverse(std::complex<double>* data) const noexcept {
  bit_reverse(data);
  inverse_from_bitrev(data);
}

void FftPlan::forward_from_bitrev(std::complex<double>* data) const noexcept {
  stages(data, /*inverse=*/false);
}

void FftPlan::inverse_from_bitrev(std::complex<double>* data) const noexcept {
  stages(data, /*inverse=*/true);
}

namespace {

struct PlanCache {
  std::mutex mutex;
  std::unordered_map<std::size_t, std::unique_ptr<const FftPlan>> plans;
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace

const FftPlan& fft_plan(std::size_t n) {
  if (!is_pow2(n)) throw std::invalid_argument("fft_plan: size must be a power of two");
  PlanCache& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  auto& slot = cache.plans[n];
  if (!slot) slot = std::make_unique<const FftPlan>(n);
  return *slot;
}

std::size_t fft_plan_cache_size() noexcept {
  PlanCache& cache = plan_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.plans.size();
}

RealFft::RealFft(std::size_t n) : n_(n) {
  if (!is_pow2(n) || n < 2) throw std::invalid_argument("RealFft: size must be a power of two >= 2");
  half_ = &fft_plan(n / 2);
  full_ = &fft_plan(n);
}

void RealFft::forward(const double* x, std::size_t len, std::complex<double>* spec) const noexcept {
  const std::size_t h = n_ / 2;
  // Pack pairs of reals into the half-length complex signal z[j] =
  // x[2j] + i x[2j+1], zero-padding past len.
  for (std::size_t j = 0; j < h; ++j) {
    const double re = 2 * j < len ? x[2 * j] : 0.0;
    const double im = 2 * j + 1 < len ? x[2 * j + 1] : 0.0;
    spec[j] = {re, im};
  }
  half_->forward(spec);
  // Split Z into the spectra of the even/odd subsequences and butterfly
  // them into X[0..h]: X[k] = E[k] + w^k O[k] with w = e^{-2*pi*i/n},
  // and X[h-k] = conj(E[k] - w^k O[k]).
  const std::complex<double> z0 = spec[0];
  spec[0] = {z0.real() + z0.imag(), 0.0};
  spec[h] = {z0.real() - z0.imag(), 0.0};
  const std::complex<double>* w = full_->twiddles();
  for (std::size_t k = 1; k < h - k; ++k) {
    const std::complex<double> zk = spec[k];
    const std::complex<double> zm = std::conj(spec[h - k]);
    const std::complex<double> e = 0.5 * (zk + zm);
    const std::complex<double> o = std::complex<double>{0.0, -0.5} * (zk - zm);
    const std::complex<double> t = w[k] * o;
    spec[k] = e + t;
    spec[h - k] = std::conj(e - t);
  }
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);
}

void RealFft::inverse(std::complex<double>* spec, double* out) const noexcept {
  const std::size_t h = n_ / 2;
  // Invert the forward butterfly to recover Z[0..h), run the half-size
  // inverse transform, and unpack x[2j] + i x[2j+1] = z[j]. The 1/h
  // normalization of the half transform is exactly the 1/n of the full
  // one (the packing identity carries no extra scale).
  const double x0 = spec[0].real();
  const double xh = spec[h].real();
  spec[0] = {0.5 * (x0 + xh), 0.5 * (x0 - xh)};
  const std::complex<double>* w = full_->twiddles();
  for (std::size_t k = 1; k < h - k; ++k) {
    const std::complex<double> xk = spec[k];
    const std::complex<double> xm = std::conj(spec[h - k]);
    const std::complex<double> e = 0.5 * (xk + xm);
    const std::complex<double> t = 0.5 * (xk - xm);  // = w^k O[k]
    const std::complex<double> o = std::conj(w[k]) * t;
    spec[k] = {e.real() - o.imag(), e.imag() + o.real()};          // E + iO
    spec[h - k] = {e.real() + o.imag(), -e.imag() + o.real()};     // conj(E) + i conj(O)
  }
  if (h >= 2) spec[h / 2] = std::conj(spec[h / 2]);
  half_->inverse(spec);
  const double inv_h = 1.0 / static_cast<double>(h);
  for (std::size_t j = 0; j < h; ++j) {
    out[2 * j] = spec[j].real() * inv_h;
    out[2 * j + 1] = spec[j].imag() * inv_h;
  }
}

}  // namespace lrd::numerics
