#include "numerics/simd.hpp"

#include <atomic>
#include <cmath>

#include "numerics/special_functions.hpp"

namespace lrd::numerics::simd {

namespace {

/// Plain-formula complex multiply. std::complex's operator* routes
/// through __muldc3 for NaN recovery — a function call per butterfly;
/// the butterflies validate finiteness upstream, so the four-multiply
/// form is both faster and exactly what the vector kernels compute.
inline std::complex<double> cmul1(std::complex<double> a, std::complex<double> b) noexcept {
  return {a.real() * b.real() - a.imag() * b.imag(),
          a.real() * b.imag() + a.imag() * b.real()};
}

template <bool Inverse>
void radix4_scalar_impl(std::complex<double>* d, std::size_t n, std::size_t len,
                        const std::complex<double>* wa, const std::complex<double>* wb,
                        const std::complex<double>* wc) noexcept {
  const std::size_t q = len / 2;
  const std::size_t block = 2 * len;
  for (std::size_t j = 0; j < n; j += block) {
    std::complex<double>* p0 = d + j;
    std::complex<double>* p1 = p0 + q;
    std::complex<double>* p2 = p0 + len;
    std::complex<double>* p3 = p2 + q;
    for (std::size_t k = 0; k < q; ++k) {
      const std::complex<double> wak = Inverse ? std::conj(wa[k]) : wa[k];
      const std::complex<double> wbk = Inverse ? std::conj(wb[k]) : wb[k];
      const std::complex<double> wck = Inverse ? std::conj(wc[k]) : wc[k];
      const std::complex<double> x0 = p0[k];
      const std::complex<double> x1 = p1[k];
      const std::complex<double> x2 = p2[k];
      const std::complex<double> x3 = p3[k];
      const std::complex<double> t1 = cmul1(x1, wak);
      const std::complex<double> a0 = x0 + t1;
      const std::complex<double> a1 = x0 - t1;
      const std::complex<double> t3 = cmul1(x3, wak);
      const std::complex<double> a2 = x2 + t3;
      const std::complex<double> a3 = x2 - t3;
      const std::complex<double> u2 = cmul1(a2, wbk);
      const std::complex<double> u3 = cmul1(a3, wck);
      p0[k] = a0 + u2;
      p2[k] = a0 - u2;
      p1[k] = a1 + u3;
      p3[k] = a1 - u3;
    }
  }
}

/// One chain's share of the scan pass, entry by entry: the health scan
/// of the pre-clamp value, then the clamp and the running total.
struct ChainScanner {
  CompensatedSum mass;
  ChainScan scan;

  void visit(double& p) noexcept {
    if (std::isfinite(p)) {
      mass.add(p);
      if (p < scan.min_entry) scan.min_entry = p;
    } else {
      scan.finite = false;
    }
    if (p < 0.0) p = 0.0;
    scan.total += p;
  }

  ChainScan finish() noexcept {
    scan.mass = mass.value();
    return scan;
  }
};

const FftKernels kScalarKernels{Isa::kScalar,
                                "scalar",
                                &detail::radix4_pass_scalar,
                                &detail::spectrum_multiply_scalar,
                                &detail::fold_pack_scalar,
                                &detail::fold_scan_scalar};

/// Best table this CPU supports.
const FftKernels* detect() noexcept {
#if LRD_SIMD && (defined(__x86_64__) || defined(_M_X64))
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return detail::avx2_fft_kernels();
#endif
  if (const FftKernels* neon = detail::neon_fft_kernels()) return neon;
  return &kScalarKernels;
}

std::atomic<const FftKernels*> g_active{nullptr};

}  // namespace

namespace detail {

void radix2_pass_scalar(std::complex<double>* data, std::size_t n) {
  // w_0 = 1, so forward and inverse coincide.
  for (std::size_t i = 0; i < n; i += 2) {
    const std::complex<double> u = data[i];
    const std::complex<double> v = data[i + 1];
    data[i] = u + v;
    data[i + 1] = u - v;
  }
}

void radix4_pass_scalar(std::complex<double>* data, std::size_t n, std::size_t len,
                        const std::complex<double>* wa, const std::complex<double>* wb,
                        const std::complex<double>* wc, bool inverse, bool radix2_first) {
  if (radix2_first) radix2_pass_scalar(data, n);
  if (inverse)
    radix4_scalar_impl<true>(data, n, len, wa, wb, wc);
  else
    radix4_scalar_impl<false>(data, n, len, wa, wb, wc);
}

void spectrum_multiply_scalar(const std::complex<double>* x, const std::complex<double>* ka,
                              const std::complex<double>* kb, const std::uint32_t* rev,
                              std::size_t n, std::size_t first, std::size_t last,
                              std::complex<double>* y) {
  // Written out in real arithmetic: std::complex products carry a NaN
  // recovery branch per multiply, and dropping it made the whole fold
  // step ~20% faster at 1024-16384 bins (micro_solver/fold_step). The
  // AVX2 entry computes these very products, sums and differences, lane
  // by lane.
  for (std::size_t k = first; k < last; ++k) {
    const std::size_t m = n - k;
    const double ar = 0.5 * (x[k].real() + x[m].real());
    const double ai = 0.5 * (x[k].imag() - x[m].imag());
    const double br = 0.5 * (x[k].imag() + x[m].imag());
    const double bi = -0.5 * (x[k].real() - x[m].real());
    const double kar = ka[k].real(), kai = ka[k].imag();
    const double kbr = kb[k].real(), kbi = kb[k].imag();
    y[rev[k]] = {(ar * kar - ai * kai) - (br * kbi + bi * kbr),
                 (ar * kai + ai * kar) + (br * kbr - bi * kbi)};
    const double mar = ka[m].real(), mai = ka[m].imag();
    const double mbr = kb[m].real(), mbi = kb[m].imag();
    y[rev[m]] = {(ar * mar + ai * mai) - (br * mbi - bi * mbr),
                 (ar * mai - ai * mar) + (br * mbr + bi * mbi)};
  }
}

FoldAtoms fold_pack_scalar(const double* q_low, const double* q_high, const double* tails,
                           const std::uint32_t* rev, std::size_t points, std::complex<double>* x) {
  CompensatedSum low_zero, high_zero, low_full, high_full;
  for (std::size_t j = 0; j < points; ++j) {
    const double* t = tails + 4 * j;
    x[rev[j]] = {q_low[j], q_high[j]};
    low_zero.add(q_low[j] * t[0]);
    high_zero.add(q_high[j] * t[1]);
    low_full.add(q_low[j] * t[2]);
    high_full.add(q_high[j] * t[3]);
  }
  return {{low_zero.value(), high_zero.value()}, {low_full.value(), high_full.value()}};
}

void fold_scan_scalar(FoldAtoms atoms, const std::complex<double>* interior, std::size_t count,
                      double scale, double* next_low, double* next_high, ChainScan& low,
                      ChainScan& high) {
  ChainScanner lo, hi;
  next_low[0] = atoms.zero.real();
  next_high[0] = atoms.zero.imag();
  lo.visit(next_low[0]);
  hi.visit(next_high[0]);
  for (std::size_t i = 0; i < count; ++i) {
    next_low[i + 1] = interior[i].real() * scale;
    next_high[i + 1] = interior[i].imag() * scale;
    lo.visit(next_low[i + 1]);
    hi.visit(next_high[i + 1]);
  }
  next_low[count + 1] = atoms.full.real();
  next_high[count + 1] = atoms.full.imag();
  lo.visit(next_low[count + 1]);
  hi.visit(next_high[count + 1]);
  low = lo.finish();
  high = hi.finish();
}

}  // namespace detail

const FftKernels& active_fft_kernels() noexcept {
  const FftKernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    k = detect();
    // Another thread may have published concurrently; detection is
    // deterministic, so whichever write wins names the same table.
    g_active.store(k, std::memory_order_release);
  }
  return *k;
}

const char* active_isa_name() noexcept { return active_fft_kernels().name; }

bool set_active_kernels_for_testing(Isa isa) noexcept {
  const FftKernels* k = nullptr;
  switch (isa) {
    case Isa::kScalar:
      k = &kScalarKernels;
      break;
    case Isa::kAvx2:
#if LRD_SIMD && (defined(__x86_64__) || defined(_M_X64))
      if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
        k = detail::avx2_fft_kernels();
#endif
      break;
    case Isa::kNeon:
      k = detail::neon_fft_kernels();
      break;
  }
  if (k == nullptr) return false;
  g_active.store(k, std::memory_order_release);
  return true;
}

void reset_active_kernels_for_testing() noexcept {
  g_active.store(nullptr, std::memory_order_release);
}

}  // namespace lrd::numerics::simd
