// AVX2+FMA kernel table. This is the only TU compiled with
// -mavx2 -mfma (see src/CMakeLists.txt); the dispatcher in simd.cpp
// checks the avx2/fma CPUID bits before publishing this table, so no
// vector instruction executes on CPUs that lack them.
#include "numerics/simd.hpp"

#if LRD_SIMD && (defined(__x86_64__) || defined(_M_X64))

#include <immintrin.h>

namespace lrd::numerics::simd::detail {

namespace {

// A 256-bit ymm holds two complex doubles [re0, im0, re1, im1]; every
// array the butterfly touches is contiguous in the twiddle index k, so
// one load grabs the k and k+1 lanes of any operand.

/// Two complex products x * w per register.
inline __m256d cmul2(__m256d x, __m256d w) noexcept {
  const __m256d wr = _mm256_movedup_pd(w);         // [wr0, wr0, wr1, wr1]
  const __m256d wi = _mm256_permute_pd(w, 0xF);    // [wi0, wi0, wi1, wi1]
  const __m256d xs = _mm256_permute_pd(x, 0x5);    // [im0, re0, im1, re1]
  // even lanes: xr*wr - xi*wi, odd lanes: xi*wr + xr*wi
  return _mm256_fmaddsub_pd(x, wr, _mm256_mul_pd(xs, wi));
}

/// Two conjugated products x * conj(w) per register (the inverse pass).
inline __m256d cmul2_conj(__m256d x, __m256d w) noexcept {
  const __m256d wr = _mm256_movedup_pd(w);
  const __m256d wi = _mm256_permute_pd(w, 0xF);
  const __m256d xs = _mm256_permute_pd(x, 0x5);
  // even lanes: xr*wr + xi*wi, odd lanes: xi*wr - xr*wi
  return _mm256_fmsubadd_pd(x, wr, _mm256_mul_pd(xs, wi));
}

template <bool Inverse>
inline __m256d cmul2_dir(__m256d x, __m256d w) noexcept {
  return Inverse ? cmul2_conj(x, w) : cmul2(x, w);
}

template <bool Inverse>
void radix4_avx2(std::complex<double>* d, std::size_t n, std::size_t len,
                 const std::complex<double>* wa, const std::complex<double>* wb,
                 const std::complex<double>* wc) noexcept {
  const std::size_t q = len / 2;
  const std::size_t block = 2 * len;
  for (std::size_t j = 0; j < n; j += block) {
    double* p0 = reinterpret_cast<double*>(d + j);
    double* p1 = reinterpret_cast<double*>(d + j + q);
    double* p2 = reinterpret_cast<double*>(d + j + len);
    double* p3 = reinterpret_cast<double*>(d + j + len + q);
    // q is a power of two, so q >= 2 means the vector loop covers the
    // whole range with no tail; q == 1 (len == 2) is handled below.
    for (std::size_t k = 0; k + 2 <= q; k += 2) {
      const __m256d x0 = _mm256_loadu_pd(p0 + 2 * k);
      const __m256d x1 = _mm256_loadu_pd(p1 + 2 * k);
      const __m256d x2 = _mm256_loadu_pd(p2 + 2 * k);
      const __m256d x3 = _mm256_loadu_pd(p3 + 2 * k);
      const __m256d wav = _mm256_loadu_pd(reinterpret_cast<const double*>(wa + k));
      const __m256d wbv = _mm256_loadu_pd(reinterpret_cast<const double*>(wb + k));
      const __m256d wcv = _mm256_loadu_pd(reinterpret_cast<const double*>(wc + k));
      const __m256d t1 = cmul2_dir<Inverse>(x1, wav);
      const __m256d a0 = _mm256_add_pd(x0, t1);
      const __m256d a1 = _mm256_sub_pd(x0, t1);
      const __m256d t3 = cmul2_dir<Inverse>(x3, wav);
      const __m256d a2 = _mm256_add_pd(x2, t3);
      const __m256d a3 = _mm256_sub_pd(x2, t3);
      const __m256d u2 = cmul2_dir<Inverse>(a2, wbv);
      const __m256d u3 = cmul2_dir<Inverse>(a3, wcv);
      _mm256_storeu_pd(p0 + 2 * k, _mm256_add_pd(a0, u2));
      _mm256_storeu_pd(p2 + 2 * k, _mm256_sub_pd(a0, u2));
      _mm256_storeu_pd(p1 + 2 * k, _mm256_add_pd(a1, u3));
      _mm256_storeu_pd(p3 + 2 * k, _mm256_sub_pd(a1, u3));
    }
  }
}

void radix4_pass_avx2(std::complex<double>* data, std::size_t n, std::size_t len,
                      const std::complex<double>* wa, const std::complex<double>* wb,
                      const std::complex<double>* wc, bool inverse) {
  if (len < 4) {  // one butterfly per block: below vector width
    radix4_pass_scalar(data, n, len, wa, wb, wc, inverse);
    return;
  }
  if (inverse)
    radix4_avx2<true>(data, n, len, wa, wb, wc);
  else
    radix4_avx2<false>(data, n, len, wa, wb, wc);
}

const FftKernels kAvx2Kernels{Isa::kAvx2, "avx2", &radix4_pass_avx2};

}  // namespace

const FftKernels* avx2_fft_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace lrd::numerics::simd::detail

#else  // compiled out: wrong architecture or -DLRD_DISABLE_SIMD

namespace lrd::numerics::simd::detail {
const FftKernels* avx2_fft_kernels() noexcept { return nullptr; }
}  // namespace lrd::numerics::simd::detail

#endif
