// Linear convolution of real sequences, direct and FFT-based, plus the
// packed two-kernel circular convolver the solver runs once per epoch
// (the inner loop of the queue-occupancy recursion, Eq. 19 of the paper).
//
// Workspace ownership: DualKernelConvolver::convolve_into never
// allocates — the caller constructs a Workspace (two n-point buffers)
// once per level and thread and threads it through every call.
// Workspaces are cheap, movable, and tied to the convolver's FFT size;
// sharing one across threads is not allowed. The outputs are a window of the caller's
// choosing, written straight into the caller's buffers, so a caller that
// reads only part of the result needs no n-entry output buffer. The
// allocating functions (`convolve_direct`, `convolve_fft`,
// `self_convolve`) serve cold callers and tests.
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
/// DualKernelConvolver validates its kernels once at construction.
std::vector<double> convolve_fft(const std::vector<double>& a, const std::vector<double>& b);

/// n-fold self-convolution of a sequence (n >= 1), computed by spectrum
/// powering: one forward transform, a pointwise n-th power, one inverse
/// — instead of n - 1 repeated convolutions with their O(n) reallocation
/// churn. Small outputs fall back to exact repeated direct convolution.
std::vector<double> self_convolve(const std::vector<double>& a, std::size_t n);

/// Two same-length kernels, two signals, one complex FFT round-trip of
/// a fixed power-of-two size n: the classic two-for-one trick. The
/// signals ride as the real and imaginary parts of a single complex
/// transform, the packed spectrum is split by conjugate symmetry,
/// multiplied bin-wise by the respective kernel spectra, recombined, and
/// brought back with one inverse — the per-epoch cost of the solver's
/// paired Q_L / Q_H chains.
///
/// The result is the n-point *circular* convolution: output k is the sum
/// of the linear convolution's entries k, k + n, k + 2n, ... A linear
/// convolution is the same object with n >= len + kernel length - 1; the
/// solver instead runs n = next_pow2(2M) and asks for only the window
/// of entries that no wrap reaches (queueing::DualFoldEngine). The
/// kernels are validated finite and transformed once, at construction;
/// signals are NOT re-scanned per call — the solver owns guardrails that
/// catch runtime NaN/Inf.
class DualKernelConvolver {
 public:
  /// Kernels must be non-empty, finite, and the same length; `n` must be
  /// a power of two >= 2. A kernel longer than n is wrapped mod n.
  DualKernelConvolver(std::vector<double> kernel_a, std::vector<double> kernel_b, std::size_t n);

  /// Two n-point buffers: `freq` takes the packed signals in
  /// bit-reversed order and transforms them to their natural-order
  /// spectrum; `prod` takes the product spectrum in bit-reversed order and
  /// transforms it back to the two natural-order convolutions.
  struct Workspace {
    std::vector<std::complex<double>> freq;
    std::vector<std::complex<double>> prod;
  };
  Workspace make_workspace() const {
    return Workspace{std::vector<std::complex<double>>(n_), std::vector<std::complex<double>>(n_)};
  }

  /// The window [first, first + count) of a (*) kernel_a and b (*)
  /// kernel_b, the n-point circular convolutions, for signals of
  /// 1 <= len <= n entries: out_a[i] and out_b[i] receive entry first + i,
  /// and nothing else is written (first + count <= n; count may be 0). One
  /// FFT round-trip, zero allocations, no bit-reversal swap pass: the
  /// signals are scattered to their bit-reversed positions and the
  /// product spectrum is written to its bit-reversed positions, so both
  /// transforms run only their butterfly stages. The result has the bits
  /// of packing in natural order and running FftPlan::forward / inverse.
  void convolve_into(const double* a, const double* b, std::size_t len, Workspace& ws,
                     std::size_t first, std::size_t count, double* out_a, double* out_b) const;

 private:
  std::size_t n_;
  const FftPlan* plan_ = nullptr;               // full complex plan of size n_
  std::vector<std::complex<double>> spec_a_;    // full n_-bin kernel spectra
  std::vector<std::complex<double>> spec_b_;
};

}  // namespace lrd::numerics
