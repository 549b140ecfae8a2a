// Linear convolution of real sequences, direct and FFT-based, plus the
// packed two-kernel circular convolver the solver runs once per epoch
// (the inner loop of the queue-occupancy recursion, Eq. 19 of the paper).
//
// Workspace ownership: DualKernelConvolver::round_trip never allocates —
// the caller constructs a Workspace (two n-point buffers) once per level
// and thread, packs each step's signals into it and reads the result
// from it. Workspaces are cheap, movable, and tied to the convolver's
// FFT size; sharing one across threads is not allowed. The caller packs
// and reads only what it needs, so it needs no other n-entry buffer. The
// allocating functions (`convolve_direct`, `convolve_fft`,
// `self_convolve`) serve cold callers and tests.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
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
/// solver instead runs n = next_pow2(2M) and reads only the window of
/// entries that no wrap reaches (queueing::DualFoldEngine). The kernels
/// are validated finite and transformed once, at construction; signals
/// are NOT re-scanned per call — the solver owns guardrails that catch
/// runtime NaN/Inf.
class DualKernelConvolver {
 public:
  /// Kernels must be non-empty, finite, and the same length; `n` must be
  /// a power of two >= 2. A kernel longer than n is wrapped mod n.
  DualKernelConvolver(std::vector<double> kernel_a, std::vector<double> kernel_b, std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// The bit-reversal table of the size-n plan: signal point j belongs at
  /// freq[bitrev()[j]].
  const std::uint32_t* bitrev() const noexcept { return plan_->bitrev(); }

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

  /// One FFT round-trip on a workspace the caller packed: ws.freq holds
  /// the signal pair a + i b with point j at bitrev()[j] and zeros
  /// elsewhere (1 <= len <= n points). Runs the forward stages, the
  /// kernel table's split-multiply into ws.prod, and the inverse stages,
  /// and returns ws.prod: n unscaled outputs in natural order, entry k's
  /// real part n (a (*) kernel_a)[k] and its imaginary part
  /// n (b (*) kernel_b)[k]. No allocation and no bit-reversal swap pass;
  /// the result has the bits of packing in natural order and running
  /// FftPlan::forward / inverse. Throws std::invalid_argument when either
  /// buffer is not n points.
  const std::complex<double>* round_trip(Workspace& ws) const;

 private:
  std::size_t n_;
  const FftPlan* plan_ = nullptr;               // full complex plan of size n_
  std::vector<std::complex<double>> spec_a_;    // full n_-bin kernel spectra
  std::vector<std::complex<double>> spec_b_;
};

}  // namespace lrd::numerics
