// Cached FFT plans: precomputed twiddle-factor and bit-reversal tables
// per power-of-two size, plus a real-to-complex / complex-to-real
// transform pair that exploits conjugate symmetry to halve the work.
//
// A plan is built once per size, cached process wide, and applied in
// place with zero heap allocations — the solver's epoch loop runs
// millions of fixed-size transforms. Every transform in the process runs
// here: the cold wrappers in fft.hpp, the solver's DualKernelConvolver
// (one complex plan per level), and through RealFft the FFT convolutions,
// the Davies-Harte fGn generator and the periodogram estimators.
//
// A transform is a bit-reversal swap pass followed by the butterfly
// stages, each stage one call of the kernel table's radix-4 pass (the
// first one also runs the unpaired radix-2 stage when log2(n) is odd).
// The stages are also exposed on their own (forward_from_bitrev,
// inverse_from_bitrev) with the permutation table, so the solver's fold
// step packs its input straight into bit-reversed order and runs no
// swap pass; forward() and inverse() call the same stage entries, so
// both routes give the same bits on every kernel table. RealFft keeps
// the swap pass: at the sizes the trace builds and periodograms run
// (2^17 points and up), packing into bit-reversed order was slower than
// a natural-order pack plus the pass.
//
// Thread safety: fft_plan() lookup is mutex-guarded and the returned
// plan is immutable, so plans may be shared freely across the
// executor's worker threads; apply-side state lives entirely in
// caller-owned buffers. Plans are never evicted (the working set is a
// handful of sizes), so returned references stay valid for the life of
// the process.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lrd::numerics {

/// Immutable DIT plan for one power-of-two size: bit-reversal
/// permutation table, the base twiddle table w[k] = e^{-2*pi*i*k/n} for
/// k < n/2 (the real transform's post-processing twiddles), and the
/// per-stage tables of the fused radix-2^2 decomposition.
///
/// The transform runs consecutive radix-2 stages (len, 2*len) as one
/// fused four-point butterfly pass — half the passes over the data, and
/// an inner loop that is a contiguous sweep over the twiddle index, the
/// shape the LRD_SIMD kernels (simd.hpp) vectorize. Each fused stage
/// carries contiguous copies of its three twiddle sequences
/// (wa = e^{-2*pi*i*k/len}, wb = e^{-2*pi*i*k/(2*len)}, wc = -i*wb) so
/// the kernels load them with unit stride. When log2(n) is odd the one
/// unpaired stage is the twiddle-free radix-2 stage; the first fused
/// pass (len == 4) runs it before its own butterflies, so every stage
/// of every size but n == 2 is one kernel-table call.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);

  std::size_t size() const noexcept { return n_; }

  /// In-place forward DFT of n complex points. No allocation.
  void forward(std::complex<double>* data) const noexcept;

  /// In-place unnormalized inverse DFT (callers divide by n).
  void inverse(std::complex<double>* data) const noexcept;

  /// The butterfly stages of forward() / inverse() alone: `data` holds
  /// the input in bit-reversed order (input point i at bitrev()[i]) and
  /// receives the transform in natural order. forward() and inverse() are
  /// the bit-reversal swap pass followed by these very calls, so a caller
  /// that writes its input straight into bit-reversed positions gets the
  /// same bits without the swap pass.
  void forward_from_bitrev(std::complex<double>* data) const noexcept;
  void inverse_from_bitrev(std::complex<double>* data) const noexcept;

  /// The bit-reversal permutation: bitrev()[i] is i with its log2(n) bits
  /// reversed (n entries; an involution).
  const std::uint32_t* bitrev() const noexcept { return bitrev_.data(); }

  /// w[k] = e^{-2*pi*i*k/n}, k < n/2 — also the post-processing twiddles
  /// of the real transform of size n built on the half-size plan.
  const std::complex<double>* twiddles() const noexcept { return twiddle_.data(); }

 private:
  /// One fused pass covering the radix-2 stages (len, 2 * len), and with
  /// radix2_first the unpaired stage before them; the offsets index
  /// stage_twiddle_ (len / 2 entries per sequence).
  struct Stage {
    std::size_t len;
    std::size_t wa, wb, wc;
    bool radix2_first;
  };

  void bit_reverse(std::complex<double>* data) const noexcept;
  void stages(std::complex<double>* data, bool inverse) const noexcept;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;
  std::vector<std::complex<double>> twiddle_;
  std::vector<Stage> stages_;
  std::vector<std::complex<double>> stage_twiddle_;
};

/// Shared plan for size n (a power of two), building and caching it on
/// first use. Thread-safe; the reference is valid forever.
const FftPlan& fft_plan(std::size_t n);

/// Number of distinct sizes currently cached (diagnostics/tests).
std::size_t fft_plan_cache_size() noexcept;

/// Real-input transform pair of size n (a power of two >= 2), built on
/// the half-size complex plan: a length-n real signal costs one
/// length-n/2 complex transform plus an O(n) butterfly.
///
/// Spectrum layout: the non-redundant half, spec[k] = X[k] for
/// k = 0..n/2 (n/2 + 1 entries); X[0] and X[n/2] are real. The inverse
/// assumes (and does not check) Hermitian symmetry of the implied full
/// spectrum, i.e. that the half-spectrum came from real data.
class RealFft {
 public:
  explicit RealFft(std::size_t n);

  std::size_t size() const noexcept { return n_; }
  std::size_t spectrum_size() const noexcept { return n_ / 2 + 1; }

  /// Forward transform of x[0..len) zero-padded to n (len <= n).
  /// Writes spectrum_size() entries to `spec` (which must not alias x).
  /// No allocation, no finiteness check — callers validate inputs once
  /// up front (see convolve_fft).
  void forward(const double* x, std::size_t len, std::complex<double>* spec) const noexcept;

  /// Normalized inverse (divides by n): consumes the half-spectrum in
  /// `spec` (clobbering it) and writes n real samples to `out`.
  void inverse(std::complex<double>* spec, double* out) const noexcept;

 private:
  std::size_t n_;
  const FftPlan* half_;  ///< plan of size n/2 (null when n == 2)
  const FftPlan* full_;  ///< plan of size n, for its twiddle table
};

}  // namespace lrd::numerics
