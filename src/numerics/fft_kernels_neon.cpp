// Include only numerics/simd.hpp: an inline helper emitted from a vector TU can be every TU's copy.
// NEON kernel table for aarch64, where Advanced SIMD is baseline — no
// special compile flags and no CPUID check needed. A 128-bit register
// holds one complex double, so the win over scalar comes from the
// shuffle-free FMA complex multiply and the compiler interleaving two
// independent butterflies per iteration, not from lane width.
#include "numerics/simd.hpp"

#if LRD_SIMD && defined(__aarch64__)

#include <arm_neon.h>

namespace lrd::numerics::simd::detail {

namespace {

/// x * w for one complex double per register ([re, im] lanes).
template <bool Conj>
inline float64x2_t cmul_neon(float64x2_t x, float64x2_t w) noexcept {
  const float64x2_t wr = vdupq_laneq_f64(w, 0);  // [wr, wr]
  const float64x2_t wi = vdupq_laneq_f64(w, 1);  // [wi, wi]
  const float64x2_t xs = vextq_f64(x, x, 1);     // [im, re]
  // forward: [xr*wr - xi*wi, xi*wr + xr*wi]
  // conj:    [xr*wr + xi*wi, xi*wr - xr*wi]
  const float64x2_t sign = Conj ? float64x2_t{1.0, -1.0} : float64x2_t{-1.0, 1.0};
  return vfmaq_f64(vmulq_f64(x, wr), vmulq_f64(xs, sign), wi);
}

template <bool Inverse>
void radix4_neon(std::complex<double>* d, std::size_t n, std::size_t len,
                 const std::complex<double>* wa, const std::complex<double>* wb,
                 const std::complex<double>* wc) noexcept {
  const std::size_t q = len / 2;
  const std::size_t block = 2 * len;
  for (std::size_t j = 0; j < n; j += block) {
    double* p0 = reinterpret_cast<double*>(d + j);
    double* p1 = reinterpret_cast<double*>(d + j + q);
    double* p2 = reinterpret_cast<double*>(d + j + len);
    double* p3 = reinterpret_cast<double*>(d + j + len + q);
    for (std::size_t k = 0; k < q; ++k) {
      const float64x2_t x0 = vld1q_f64(p0 + 2 * k);
      const float64x2_t x1 = vld1q_f64(p1 + 2 * k);
      const float64x2_t x2 = vld1q_f64(p2 + 2 * k);
      const float64x2_t x3 = vld1q_f64(p3 + 2 * k);
      const float64x2_t wav = vld1q_f64(reinterpret_cast<const double*>(wa + k));
      const float64x2_t wbv = vld1q_f64(reinterpret_cast<const double*>(wb + k));
      const float64x2_t wcv = vld1q_f64(reinterpret_cast<const double*>(wc + k));
      const float64x2_t t1 = cmul_neon<Inverse>(x1, wav);
      const float64x2_t a0 = vaddq_f64(x0, t1);
      const float64x2_t a1 = vsubq_f64(x0, t1);
      const float64x2_t t3 = cmul_neon<Inverse>(x3, wav);
      const float64x2_t a2 = vaddq_f64(x2, t3);
      const float64x2_t a3 = vsubq_f64(x2, t3);
      const float64x2_t u2 = cmul_neon<Inverse>(a2, wbv);
      const float64x2_t u3 = cmul_neon<Inverse>(a3, wcv);
      vst1q_f64(p0 + 2 * k, vaddq_f64(a0, u2));
      vst1q_f64(p2 + 2 * k, vsubq_f64(a0, u2));
      vst1q_f64(p1 + 2 * k, vaddq_f64(a1, u3));
      vst1q_f64(p3 + 2 * k, vsubq_f64(a1, u3));
    }
  }
}

void radix4_pass_neon(std::complex<double>* data, std::size_t n, std::size_t len,
                      const std::complex<double>* wa, const std::complex<double>* wb,
                      const std::complex<double>* wc, bool inverse) {
  if (inverse)
    radix4_neon<true>(data, n, len, wa, wb, wc);
  else
    radix4_neon<false>(data, n, len, wa, wb, wc);
}

const FftKernels kNeonKernels{Isa::kNeon, "neon", &radix4_pass_neon};

}  // namespace

const FftKernels* neon_fft_kernels() noexcept { return &kNeonKernels; }

}  // namespace lrd::numerics::simd::detail

#else  // compiled out: wrong architecture or -DLRD_DISABLE_SIMD

namespace lrd::numerics::simd::detail {
const FftKernels* neon_fft_kernels() noexcept { return nullptr; }
}  // namespace lrd::numerics::simd::detail

#endif
