// Include only numerics/simd.hpp: an inline helper emitted with -mavx2 -mfma can be all TUs' copy.
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

/// [z0, z1] -> [z1, z0]: the two complex lanes swapped.
inline __m256d swap_lanes(__m256d z) noexcept { return _mm256_permute2f128_pd(z, z, 0x01); }

/// The twiddle-free radix-2 stage on one register holding a pair
/// [u, v]: [u + v, u - v], each lane the scalar stage's operation with
/// u as its first operand.
inline __m256d radix2(__m256d x) noexcept {
  const __m256d s = swap_lanes(x);  // [v, u]
  return _mm256_blend_pd(_mm256_add_pd(x, s), _mm256_sub_pd(s, x), 0xC);
}

/// The four-point butterfly of simd.hpp on two lanes of k.
template <bool Inverse>
inline void butterfly(__m256d x0, __m256d x1, __m256d x2, __m256d x3, __m256d wav, __m256d wbv,
                      __m256d wcv, __m256d& y0, __m256d& y1, __m256d& y2,
                      __m256d& y3) noexcept {
  const __m256d t1 = cmul2_dir<Inverse>(x1, wav);
  const __m256d a0 = _mm256_add_pd(x0, t1);
  const __m256d a1 = _mm256_sub_pd(x0, t1);
  const __m256d t3 = cmul2_dir<Inverse>(x3, wav);
  const __m256d a2 = _mm256_add_pd(x2, t3);
  const __m256d a3 = _mm256_sub_pd(x2, t3);
  const __m256d u2 = cmul2_dir<Inverse>(a2, wbv);
  const __m256d u3 = cmul2_dir<Inverse>(a3, wcv);
  y0 = _mm256_add_pd(a0, u2);
  y2 = _mm256_sub_pd(a0, u2);
  y1 = _mm256_add_pd(a1, u3);
  y3 = _mm256_sub_pd(a1, u3);
}

template <bool Inverse, bool Radix2First>
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
    // whole range with no tail; q == 1 (len == 2) runs in
    // radix4_len2_avx2. With the fused radix-2 stage len == 4, so each
    // register loaded here is one of its pairs.
    for (std::size_t k = 0; k + 2 <= q; k += 2) {
      __m256d x0 = _mm256_loadu_pd(p0 + 2 * k);
      __m256d x1 = _mm256_loadu_pd(p1 + 2 * k);
      __m256d x2 = _mm256_loadu_pd(p2 + 2 * k);
      __m256d x3 = _mm256_loadu_pd(p3 + 2 * k);
      if constexpr (Radix2First) {
        x0 = radix2(x0);
        x1 = radix2(x1);
        x2 = radix2(x2);
        x3 = radix2(x3);
      }
      const __m256d wav = _mm256_loadu_pd(reinterpret_cast<const double*>(wa + k));
      const __m256d wbv = _mm256_loadu_pd(reinterpret_cast<const double*>(wb + k));
      const __m256d wcv = _mm256_loadu_pd(reinterpret_cast<const double*>(wc + k));
      __m256d y0, y1, y2, y3;
      butterfly<Inverse>(x0, x1, x2, x3, wav, wbv, wcv, y0, y1, y2, y3);
      _mm256_storeu_pd(p0 + 2 * k, y0);
      _mm256_storeu_pd(p2 + 2 * k, y2);
      _mm256_storeu_pd(p1 + 2 * k, y1);
      _mm256_storeu_pd(p3 + 2 * k, y3);
    }
  }
}

/// The len == 2 pass (one butterfly per 4-point block, k = 0 only) on
/// two blocks at a time: registers [x0 x1 | x2 x3] of block A and B are
/// transposed to [x0_A x0_B], ..., butterflied with the broadcast k = 0
/// twiddles and transposed back. Those twiddles are (1, -0), (1, -0) and
/// (-0, -1), so every product is exact and the FMA in cmul2 rounds the
/// same sums as the scalar kernel: same bits. Needs n >= 8.
template <bool Inverse>
void radix4_len2_avx2(std::complex<double>* d, std::size_t n, const std::complex<double>* wa,
                      const std::complex<double>* wb, const std::complex<double>* wc) noexcept {
  const __m256d wav = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wa));
  const __m256d wbv = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wb));
  const __m256d wcv = _mm256_broadcast_pd(reinterpret_cast<const __m128d*>(wc));
  for (std::size_t j = 0; j < n; j += 8) {
    double* pa = reinterpret_cast<double*>(d + j);
    double* pb = reinterpret_cast<double*>(d + j + 4);
    const __m256d a01 = _mm256_loadu_pd(pa);
    const __m256d a23 = _mm256_loadu_pd(pa + 4);
    const __m256d b01 = _mm256_loadu_pd(pb);
    const __m256d b23 = _mm256_loadu_pd(pb + 4);
    const __m256d x0 = _mm256_permute2f128_pd(a01, b01, 0x20);  // [x0_A, x0_B]
    const __m256d x1 = _mm256_permute2f128_pd(a01, b01, 0x31);
    const __m256d x2 = _mm256_permute2f128_pd(a23, b23, 0x20);
    const __m256d x3 = _mm256_permute2f128_pd(a23, b23, 0x31);
    __m256d y0, y1, y2, y3;
    butterfly<Inverse>(x0, x1, x2, x3, wav, wbv, wcv, y0, y1, y2, y3);
    _mm256_storeu_pd(pa, _mm256_permute2f128_pd(y0, y1, 0x20));
    _mm256_storeu_pd(pa + 4, _mm256_permute2f128_pd(y2, y3, 0x20));
    _mm256_storeu_pd(pb, _mm256_permute2f128_pd(y0, y1, 0x31));
    _mm256_storeu_pd(pb + 4, _mm256_permute2f128_pd(y2, y3, 0x31));
  }
}

template <bool Inverse>
void radix4_pass_dir(std::complex<double>* data, std::size_t n, std::size_t len,
                     const std::complex<double>* wa, const std::complex<double>* wb,
                     const std::complex<double>* wc, bool radix2_first) noexcept {
  if (len == 2)
    radix4_len2_avx2<Inverse>(data, n, wa, wb, wc);
  else if (radix2_first)
    radix4_avx2<Inverse, true>(data, n, len, wa, wb, wc);
  else
    radix4_avx2<Inverse, false>(data, n, len, wa, wb, wc);
}

void radix4_pass_avx2(std::complex<double>* data, std::size_t n, std::size_t len,
                      const std::complex<double>* wa, const std::complex<double>* wb,
                      const std::complex<double>* wc, bool inverse, bool radix2_first) {
  if (n < 8)  // a single 4-point block: below the len == 2 pass's two blocks
    radix4_pass_scalar(data, n, len, wa, wb, wc, inverse, radix2_first);
  else if (inverse)
    radix4_pass_dir<true>(data, n, len, wa, wb, wc, radix2_first);
  else
    radix4_pass_dir<false>(data, n, len, wa, wb, wc, radix2_first);
}

/// p[0], p[1] as two complex lanes.
inline __m256d load2(const std::complex<double>* p) noexcept {
  return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
}

/// p[-1], p[0] returned as [p[0], p[-1]]: the m = n - k operands of bins
/// k and k + 1.
inline __m256d load_mirrored(const std::complex<double>* p) noexcept {
  return swap_lanes(load2(p - 1));
}

/// [re, im] per complex lane -> [im, re].
inline __m256d swap_parts(__m256d z) noexcept { return _mm256_permute_pd(z, 0x5); }

/// Lane by lane, the products a * w of the scalar multiply with `a`
/// given as its duplicated real and imaginary parts, combined without
/// FMA: [ar*wr - ai*wi, ar*wi + ai*wr], or, with the imaginary part's
/// products negated first, [ar*wr + ai*wi, ar*wi - ai*wr] (the conjugate
/// product; x - (-y) is exactly x + y).
inline __m256d cmul_nofma(__m256d re, __m256d im, __m256d w) noexcept {
  return _mm256_addsub_pd(_mm256_mul_pd(re, w), _mm256_mul_pd(im, swap_parts(w)));
}

/// The scalar entry's loop body on bins k and k + 1 and their mirrors
/// n - k and n - k - 1.
void spectrum_multiply_avx2(const std::complex<double>* x, const std::complex<double>* ka,
                            const std::complex<double>* kb, const std::uint32_t* rev,
                            std::size_t n, std::size_t first, std::size_t last,
                            std::complex<double>* y) {
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d half_neg_re = _mm256_setr_pd(-0.5, 0.5, -0.5, 0.5);
  const __m256d sign = _mm256_set1_pd(-0.0);
  std::size_t k = first;
  for (; k + 2 <= last; k += 2) {
    const std::size_t m = n - k;
    const __m256d xk = load2(x + k);
    const __m256d xm = load_mirrored(x + m);
    // [ar, br] = 0.5 * (X_k + X_m), [bi, ai] = [-0.5, 0.5] * (X_k - X_m)
    const __m256d p = _mm256_mul_pd(half, _mm256_add_pd(xk, xm));
    const __m256d q = _mm256_mul_pd(half_neg_re, _mm256_sub_pd(xk, xm));
    const __m256d ar = _mm256_movedup_pd(p);
    const __m256d br = _mm256_permute_pd(p, 0xF);
    const __m256d bi = _mm256_movedup_pd(q);
    const __m256d ai = _mm256_permute_pd(q, 0xF);
    // Bin k: A Ka + i B Kb = [AKa.re - BKb.im, AKa.im + BKb.re].
    const __m256d aka = cmul_nofma(ar, ai, load2(ka + k));
    const __m256d bkb = cmul_nofma(br, bi, load2(kb + k));
    const __m256d yk = _mm256_addsub_pd(aka, swap_parts(bkb));
    // Bin m: conj(A) Ka + i conj(B) Kb, the same combination.
    const __m256d akm = cmul_nofma(ar, _mm256_xor_pd(ai, sign), load_mirrored(ka + m));
    const __m256d bkm = cmul_nofma(br, _mm256_xor_pd(bi, sign), load_mirrored(kb + m));
    const __m256d ym = _mm256_addsub_pd(akm, swap_parts(bkm));
    _mm_storeu_pd(reinterpret_cast<double*>(y + rev[k]), _mm256_castpd256_pd128(yk));
    _mm_storeu_pd(reinterpret_cast<double*>(y + rev[k + 1]), _mm256_extractf128_pd(yk, 1));
    _mm_storeu_pd(reinterpret_cast<double*>(y + rev[m]), _mm256_castpd256_pd128(ym));
    _mm_storeu_pd(reinterpret_cast<double*>(y + rev[m - 1]), _mm256_extractf128_pd(ym, 1));
  }
  // The odd leftover bin runs in simd.cpp: scalar code compiled here
  // could be contracted to FMA and move its last bit.
  if (k < last) spectrum_multiply_scalar(x, ka, kb, rev, n, k, last, y);
}

// The fold passes. Every sum below is the scalar entry's sum, each lane
// one of its chains, with the same values in the same order. This TU is
// compiled with -ffp-contract=off, so each lane product is rounded
// before it is added, as in the scalar entry.

/// CompensatedSum::add on every lane: t = s + x, and the compensation of
/// the branch |s| >= |x| selects, blended instead of branched (a NaN
/// compares false and takes the second branch, as in the scalar add).
inline void compensated_add(__m256d& s, __m256d& c, __m256d x) noexcept {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d t = _mm256_add_pd(s, x);
  const __m256d s_big =
      _mm256_cmp_pd(_mm256_andnot_pd(sign, s), _mm256_andnot_pd(sign, x), _CMP_GE_OQ);
  const __m256d if_s_big = _mm256_add_pd(_mm256_sub_pd(s, t), x);
  const __m256d if_x_big = _mm256_add_pd(_mm256_sub_pd(x, t), s);
  c = _mm256_add_pd(c, _mm256_blendv_pd(if_x_big, if_s_big, s_big));
  s = t;
}

inline void compensated_add(__m128d& s, __m128d& c, __m128d x) noexcept {
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d t = _mm_add_pd(s, x);
  const __m128d s_big = _mm_cmp_pd(_mm_andnot_pd(sign, s), _mm_andnot_pd(sign, x), _CMP_GE_OQ);
  const __m128d if_s_big = _mm_add_pd(_mm_sub_pd(s, t), x);
  const __m128d if_x_big = _mm_add_pd(_mm_sub_pd(x, t), s);
  c = _mm_add_pd(c, _mm_blendv_pd(if_x_big, if_s_big, s_big));
  s = t;
}

/// The four atom sums as the lanes [low zero, high zero, low full, high
/// full] of one register, against one 4-entry row of the tails table per
/// occupancy j; the pair [q_low[j], q_high[j]] is the point scattered to
/// x[rev[j]] and, duplicated, the row's multiplier.
FoldAtoms fold_pack_avx2(const double* q_low, const double* q_high, const double* tails,
                         const std::uint32_t* rev, std::size_t points, std::complex<double>* x) {
  __m256d sum = _mm256_setzero_pd();
  __m256d comp = _mm256_setzero_pd();
  for (std::size_t j = 0; j < points; ++j) {
    const __m128d q = _mm_unpacklo_pd(_mm_load_sd(q_low + j), _mm_load_sd(q_high + j));
    _mm_storeu_pd(reinterpret_cast<double*>(x + rev[j]), q);
    const __m256d qq = _mm256_insertf128_pd(_mm256_castpd128_pd256(q), q, 1);
    compensated_add(sum, comp, _mm256_mul_pd(qq, _mm256_loadu_pd(tails + 4 * j)));
  }
  const __m256d value = _mm256_add_pd(sum, comp);
  FoldAtoms atoms;
  _mm_storeu_pd(reinterpret_cast<double*>(&atoms.zero), _mm256_castpd256_pd128(value));
  _mm_storeu_pd(reinterpret_cast<double*>(&atoms.full), _mm256_extractf128_pd(value, 1));
  return atoms;
}

/// The scan of both chains as the lanes [low, high] of each register.
/// A non-finite entry enters the mass and the minimum as +0.0 instead of
/// being skipped, which leaves both as they are unless one holds -0.0,
/// and none ever does: each starts at +0.0, a round-to-nearest sum is
/// -0.0 only when both operands are, and the minimum takes an entry only
/// below itself, so never -0.0 from +0.0 down. The clamp is max(0, p),
/// which returns its second operand p when p is NaN or -0.0, as
/// `if (p < 0) p = 0` keeps it.
struct ScanLanes {
  __m128d sum = _mm_setzero_pd();
  __m128d comp = _mm_setzero_pd();
  __m128d min = _mm_setzero_pd();
  __m128d total = _mm_setzero_pd();
  __m128d finite = _mm_castsi128_pd(_mm_set1_epi64x(-1));

  void visit(__m128d p, double* low, double* high) noexcept {
    const __m128d is_finite = _mm_cmp_pd(_mm_andnot_pd(_mm_set1_pd(-0.0), p),
                                         _mm_set1_pd(__builtin_inf()), _CMP_LT_OQ);
    const __m128d finite_p = _mm_and_pd(p, is_finite);
    compensated_add(sum, comp, finite_p);
    min = _mm_min_pd(finite_p, min);  // finite_p < min ? finite_p : min
    finite = _mm_and_pd(finite, is_finite);
    const __m128d clamped = _mm_max_pd(_mm_setzero_pd(), p);
    _mm_storel_pd(low, clamped);
    _mm_storeh_pd(high, clamped);
    total = _mm_add_pd(total, clamped);
  }
};

inline __m128d load_pair(const std::complex<double>& z) noexcept {
  return _mm_loadu_pd(reinterpret_cast<const double*>(&z));
}

inline double low_lane(__m128d v) noexcept { return _mm_cvtsd_f64(v); }
inline double high_lane(__m128d v) noexcept { return _mm_cvtsd_f64(_mm_unpackhi_pd(v, v)); }

void fold_scan_avx2(FoldAtoms atoms, const std::complex<double>* interior, std::size_t count,
                    double scale, double* next_low, double* next_high, ChainScan& low,
                    ChainScan& high) {
  ScanLanes s;
  s.visit(load_pair(atoms.zero), next_low, next_high);
  const __m128d sc = _mm_set1_pd(scale);
  for (std::size_t i = 0; i < count; ++i)
    s.visit(_mm_mul_pd(load_pair(interior[i]), sc), next_low + i + 1, next_high + i + 1);
  s.visit(load_pair(atoms.full), next_low + count + 1, next_high + count + 1);
  const __m128d mass = _mm_add_pd(s.sum, s.comp);
  const int finite = _mm_movemask_pd(s.finite);
  low = {low_lane(mass), low_lane(s.min), low_lane(s.total), (finite & 1) != 0};
  high = {high_lane(mass), high_lane(s.min), high_lane(s.total), (finite & 2) != 0};
}

const FftKernels kAvx2Kernels{Isa::kAvx2,           "avx2",          &radix4_pass_avx2,
                              &spectrum_multiply_avx2, &fold_pack_avx2, &fold_scan_avx2};

}  // namespace

const FftKernels* avx2_fft_kernels() noexcept { return &kAvx2Kernels; }

}  // namespace lrd::numerics::simd::detail

#else  // compiled out: wrong architecture or -DLRD_DISABLE_SIMD

namespace lrd::numerics::simd::detail {
const FftKernels* avx2_fft_kernels() noexcept { return nullptr; }
}  // namespace lrd::numerics::simd::detail

#endif
