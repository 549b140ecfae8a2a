// Linear convolution of real sequences, direct and FFT-based, plus
// cached-kernel convolvers for repeated convolutions against fixed
// kernels (the inner loop of the queue-occupancy recursion, Eq. 19 of
// the paper).
//
// Workspace ownership: the hot entry points (`convolve_into`) never
// allocate — the caller constructs a Workspace once (per level, per
// thread) and threads it through every call. Workspaces are cheap,
// movable, and tied to the convolver's FFT size; sharing one workspace
// between two convolvers of the same fft_size() is allowed, sharing one
// across threads is not. The allocating wrappers (`convolve`,
// `convolve_fft`) remain for cold callers and tests.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "numerics/fft_plan.hpp"

namespace lrd::numerics {

/// Direct O(|a|*|b|) linear convolution. Result size |a| + |b| - 1.
std::vector<double> convolve_direct(const std::vector<double>& a, const std::vector<double>& b);

/// FFT-based linear convolution with zero padding, O(n log n). Strictly
/// validates both inputs (finiteness) — this is the cold public entry;
/// the cached convolvers validate their kernel once at construction.
std::vector<double> convolve_fft(const std::vector<double>& a, const std::vector<double>& b);

/// Size-based dispatch between the direct and FFT paths.
std::vector<double> convolve(const std::vector<double>& a, const std::vector<double>& b);

/// n-fold self-convolution of a sequence (n >= 1), computed by spectrum
/// powering: one forward transform, a pointwise n-th power, one inverse
/// — instead of n - 1 repeated convolutions with their O(n) reallocation
/// churn. Small outputs fall back to exact repeated direct convolution.
std::vector<double> self_convolve(const std::vector<double>& a, std::size_t n);

/// Convolver that transforms a fixed kernel once and reuses its
/// (half, conjugate-symmetric) spectrum. The kernel is validated finite
/// at construction; signals are NOT re-scanned per call — repeated-use
/// callers (the solver) own guardrails that catch runtime NaN/Inf.
class CachedKernelConvolver {
 public:
  /// `kernel` is the fixed sequence; `max_signal_len` bounds the length of
  /// the signals that will later be convolved against it.
  CachedKernelConvolver(std::vector<double> kernel, std::size_t max_signal_len);

  /// Caller-owned scratch space for the zero-allocation path.
  struct Workspace {
    std::vector<std::complex<double>> freq;  ///< fft_size()/2 + 1 bins
    std::vector<double> time;                ///< fft_size() samples
  };
  Workspace make_workspace() const {
    return Workspace{std::vector<std::complex<double>>(n_ / 2 + 1),
                     std::vector<double>(n_)};
  }

  /// Linear convolution `signal[0..len) * kernel` written to
  /// `out[0..len + kernel_size() - 1)`. Zero heap allocations.
  void convolve_into(const double* signal, std::size_t len, Workspace& ws, double* out) const;

  /// Allocating wrapper: `signal.size() <= max_signal_len`.
  std::vector<double> convolve(const std::vector<double>& signal) const;

  std::size_t kernel_size() const noexcept { return kernel_len_; }
  std::size_t fft_size() const noexcept { return n_; }

  /// Total mass of the cached kernel. Convolution preserves mass, so the
  /// output of convolve() must sum to signal_mass * kernel_mass() up to
  /// FFT round-off — the invariant the solver's mass-conservation
  /// guardrail checks against.
  double kernel_mass() const noexcept { return kernel_mass_; }

 private:
  std::size_t kernel_len_;
  std::size_t max_signal_len_;
  std::size_t n_;  // FFT size (power of two)
  double kernel_mass_ = 0.0;
  RealFft rfft_;
  std::vector<std::complex<double>> kernel_spectrum_;  // n_/2 + 1 bins
};

/// Two same-length kernels, two signals, one complex FFT round-trip:
/// the classic two-for-one trick. The signals ride as the real and
/// imaginary parts of a single complex transform, the packed spectrum is
/// split by conjugate symmetry, multiplied bin-wise by the respective
/// kernel spectra, recombined, and brought back with one inverse — the
/// per-epoch cost of the solver's paired Q_L / Q_H chains.
class DualKernelConvolver {
 public:
  /// Kernels must be non-empty, finite, and the same length.
  DualKernelConvolver(std::vector<double> kernel_a, std::vector<double> kernel_b,
                      std::size_t max_signal_len);

  struct Workspace {
    std::vector<std::complex<double>> freq;  ///< fft_size() bins
  };
  Workspace make_workspace() const {
    return Workspace{std::vector<std::complex<double>>(n_)};
  }

  /// out_a = a * kernel_a and out_b = b * kernel_b, both of size
  /// `len + kernel_size() - 1`, in one FFT round-trip. Zero allocations.
  void convolve_into(const double* a, const double* b, std::size_t len, Workspace& ws,
                     double* out_a, double* out_b) const;

  std::size_t kernel_size() const noexcept { return kernel_len_; }
  std::size_t fft_size() const noexcept { return n_; }
  double kernel_mass_a() const noexcept { return mass_a_; }
  double kernel_mass_b() const noexcept { return mass_b_; }

 private:
  std::size_t kernel_len_;
  std::size_t max_signal_len_;
  std::size_t n_;
  double mass_a_ = 0.0;
  double mass_b_ = 0.0;
  const FftPlan* plan_;                         // full complex plan of size n_
  std::vector<std::complex<double>> spec_a_;    // full n_-bin kernel spectra
  std::vector<std::complex<double>> spec_b_;
};

}  // namespace lrd::numerics
