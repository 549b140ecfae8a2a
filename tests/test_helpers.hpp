// Shared helpers for the test suite: simple adaptive quadrature and
// moment estimation used to cross-check closed forms, a windowed front
// end to the solver's convolver, the kernel-table switch the every-table
// tests loop over, and the run-time NaN the bit-for-bit tests inject.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "numerics/convolution.hpp"
#include "numerics/simd.hpp"

namespace lrd::testing {

/// The NaN that Inf - Inf makes on this CPU, computed at run time. A sum
/// that meets two NaNs keeps one operand's payload, and the compiler may
/// order an add's operands either way; with one payload everywhere, that
/// choice cannot show in the bits.
inline double hardware_nan() {
  volatile double inf = std::numeric_limits<double>::infinity();
  return inf - inf;
}

/// Simpson's rule on [a, b] with n (even) panels.
inline double simpson(const std::function<double(double)>& f, double a, double b, int n = 4096) {
  if (n % 2 != 0) ++n;
  const double h = (b - a) / n;
  double s = f(a) + f(b);
  for (int i = 1; i < n; ++i) s += f(a + i * h) * (i % 2 == 1 ? 4.0 : 2.0);
  return s * h / 3.0;
}

/// Integrates a non-negative decreasing tail function from a to infinity
/// by doubling panels until the increment is negligible.
inline double integrate_tail(const std::function<double(double)>& f, double a,
                             double scale_hint = 1.0) {
  double total = 0.0;
  double left = a;
  double width = scale_hint;
  for (int k = 0; k < 200; ++k) {
    const double piece = simpson(f, left, left + width, 512);
    total += piece;
    left += width;
    width *= 2.0;
    if (piece < 1e-14 * (total + 1e-300) && k > 3) break;
  }
  return total;
}

/// The window [first, first + count) of the n-point circular
/// convolutions a (*) kernel_a and b (*) kernel_b, through
/// DualKernelConvolver::round_trip as the solver's fold step drives it:
/// a and b (len points) packed at their bit-reversed positions in a
/// zeroed workspace, the outputs read back scaled by 1/n.
inline void convolve_window(const numerics::DualKernelConvolver& dual,
                            numerics::DualKernelConvolver::Workspace& ws, const double* a,
                            const double* b, std::size_t len, std::size_t first,
                            std::size_t count, double* out_a, double* out_b) {
  const std::size_t n = dual.size();
  const std::uint32_t* rev = dual.bitrev();
  std::fill(ws.freq.begin(), ws.freq.end(), std::complex<double>{});
  for (std::size_t j = 0; j < len; ++j) ws.freq[rev[j]] = {a[j], b[j]};
  const std::complex<double>* out = dual.round_trip(ws) + first;
  const double inv_n = 1.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < count; ++i) {
    out_a[i] = out[i].real() * inv_n;
    out_b[i] = out[i].imag() * inv_n;
  }
}

/// Restores runtime kernel-table detection no matter how a test exits.
struct KernelGuard {
  KernelGuard() = default;
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;
  ~KernelGuard() { numerics::simd::reset_active_kernels_for_testing(); }
};

/// Every kernel table this build and CPU can run: scalar, plus the
/// vector table when there is one.
inline std::vector<numerics::simd::Isa> usable_tables() {
  using numerics::simd::Isa;
  std::vector<Isa> isas{Isa::kScalar};
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon})
    if (numerics::simd::set_active_kernels_for_testing(isa)) isas.push_back(isa);
  numerics::simd::reset_active_kernels_for_testing();
  return isas;
}

}  // namespace lrd::testing
