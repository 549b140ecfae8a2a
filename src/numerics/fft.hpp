// Radix-2 complex FFT and helpers.
//
// Self-contained replacement for an external FFT dependency. fft_inplace
// is the one complex entry point; it runs through the shared plan cache
// in fft_plan.hpp, which is also where hot consumers (the solver's
// convolution engine, the fGn generator, the periodogram estimators) go
// directly for allocation-free, real-input transforms.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

namespace lrd::numerics {

/// Returns the smallest power of two >= n (n >= 1). Throws on n == 0.
std::size_t next_pow2(std::size_t n);

/// Returns true iff n is a power of two (n >= 1).
bool is_pow2(std::size_t n) noexcept;

/// In-place DFT via the cached plan for `data.size()` — the process has
/// exactly one transform implementation (FftPlan's fused radix-2^2
/// stages with LRD_SIMD butterfly kernels); this wrapper only adds the
/// size check and the cache lookup.
///
/// `data.size()` must be a power of two. `inverse == true` computes the
/// unnormalized inverse transform; callers divide by N themselves.
void fft_inplace(std::vector<std::complex<double>>& data, bool inverse);

/// True iff every entry is finite (no NaN/Inf).
bool all_finite(const std::vector<double>& x) noexcept;

}  // namespace lrd::numerics
