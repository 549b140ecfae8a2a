// LRD_SIMD dispatch layer: runtime-selected vector kernels for the FFT
// butterfly passes, the solver's spectrum multiply, and the two passes
// of the solver's fold step around its transform (pack and scan).
//
// The transform core (fft_plan.cpp) is organized as fused radix-2^2
// stage pairs whose inner butterfly is a pure data-parallel sweep over
// the twiddle index; this header exposes that sweep, the convolver's
// per-bin split-multiply, and the fold step's pack pass (the scatter to
// bit-reversed order with the four boundary-atom dot products) and scan
// pass (scale, health scan, clamp and total of both next-state pmfs) as
// function-table entries so one binary carries a scalar implementation
// plus whatever the target ISA offers (AVX2+FMA on x86-64, NEON on
// aarch64) and picks at runtime.
// Every table implements every entry. Selection happens once, on first
// use, via an atomic pointer:
//   1. the best supported ISA wins (AVX2 requires both the avx2 and fma
//      CPUID bits; NEON is baseline on aarch64);
//   2. `-DLRD_DISABLE_SIMD=ON` compiles the vector TUs out entirely,
//      leaving only the scalar table (LRD_SIMD == 0).
// Tests switch tables with set_active_kernels_for_testing().
// The vector kernels live in separate translation units compiled with
// the matching -m flags; nothing outside those TUs executes vector
// instructions, so the binary stays safe on older CPUs. Those TUs hold
// intrinsics only: GCC's SLP vectorizer turns scalar complex products
// compiled with -mfma into fused multiply-adds even under
// -ffp-contract=off, so scalar arithmetic whose bits must match the
// scalar table is called from simd.cpp, never compiled there.
//
// Parity contract: every table computes the same butterflies in the
// same order — implementations differ only in FMA contraction, so
// scalar and vector spectra agree to ~1e-15 relative (the test suite
// pins 1e-12 across sizes 8..16384). Where every product is exact (the
// twiddle-free first passes) or no FMA is used (the spectrum multiply,
// the fold pack and scan), the vector entries give the scalar table's
// bits. Thread count never changes which table runs; results are
// reproducible across LRDQ_THREADS settings.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>

#if defined(LRD_DISABLE_SIMD)
#define LRD_SIMD 0
#else
#define LRD_SIMD 1
#endif

namespace lrd::numerics::simd {

enum class Isa { kScalar = 0, kAvx2, kNeon };

/// One fused radix-2^2 butterfly pass over the whole array: for every
/// block of `2 * len` points and every k < len / 2 it applies the
/// four-point butterfly
///   a0 = x0 + wa[k] x1    a1 = x0 - wa[k] x1
///   a2 = x2 + wa[k] x3    a3 = x2 - wa[k] x3
///   y0 = a0 + wb[k] a2    y2 = a0 - wb[k] a2
///   y1 = a1 + wc[k] a3    y3 = a1 - wc[k] a3
/// where x0..x3 sit at offsets {k, k + len/2, k + len, k + 3len/2} and
/// wc[k] = -i wb[k] (precomputed). `inverse` conjugates every twiddle.
/// With `radix2_first` (the first pass when log2(n) is odd, len == 4)
/// the pass first runs the unpaired twiddle-free radix-2 stage, mapping
/// each pair (u, v) = (x[2i], x[2i + 1]) to (u + v, u - v).
using Radix4PassFn = void (*)(std::complex<double>* data, std::size_t n, std::size_t len,
                              const std::complex<double>* wa, const std::complex<double>* wb,
                              const std::complex<double>* wc, bool inverse, bool radix2_first);

/// The two-for-one spectrum split-multiply of the solver's convolver,
/// for bins first <= k < last (1 <= first <= last <= n / 2), with
/// m = n - k: from the natural-order spectrum X of the packed signal
/// a + i b it forms A = (X_k + conj X_m) / 2 and B = -i (X_k - conj X_m) / 2,
/// and writes y[rev[k]] = A Ka_k + i B Kb_k and
/// y[rev[m]] = conj(A) Ka_m + i conj(B) Kb_m, in real arithmetic without
/// FMA (ka, kb: the kernels' full n-bin spectra; rev: the bit-reversal
/// table, so the inverse transform reads y without a swap pass).
using SpectrumMultiplyFn = void (*)(const std::complex<double>* x,
                                    const std::complex<double>* ka,
                                    const std::complex<double>* kb, const std::uint32_t* rev,
                                    std::size_t n, std::size_t first, std::size_t last,
                                    std::complex<double>* y);

/// The fold step's boundary atoms of both occupancy chains, laid out as
/// the transform's points hold the chains: real part the lower chain
/// Q_L, imaginary part the upper chain Q_H. `zero` is next[0], the mass
/// that empties the buffer; `full` is next[M], the mass that fills it.
struct FoldAtoms {
  std::complex<double> zero;
  std::complex<double> full;
};

/// The fold step's pack pass over the `points` (M + 1) entries of both
/// pre-step occupancy pmfs: writes (q_low[j], q_high[j]) to x[rev[j]]
/// (the caller zeroed x) and returns the atoms, four compensated sums
/// (numerics::CompensatedSum) taken in j order:
///   zero = (sum_j q_low[j] tails[4j],     sum_j q_high[j] tails[4j + 1])
///   full = (sum_j q_low[j] tails[4j + 2], sum_j q_high[j] tails[4j + 3])
/// `tails` interleaves per occupancy j the mass of each chain's increment
/// pmf that empties the buffer from j (lower, upper), then the mass that
/// fills it (lower, upper).
using FoldPackFn = FoldAtoms (*)(const double* q_low, const double* q_high, const double* tails,
                                 const std::uint32_t* rev, std::size_t points,
                                 std::complex<double>* x);

/// What the fold step's scan pass saw in one chain's next-state pmf.
struct ChainScan {
  double mass = 0.0;       ///< compensated sum of the finite pre-clamp entries
  double min_entry = 0.0;  ///< most negative finite pre-clamp entry, 0 when none is below 0
  double total = 0.0;      ///< plain running sum of the clamped entries
  bool finite = true;      ///< false when any entry was NaN or +/-Inf
};

/// The fold step's scan pass over both next-state pmfs (count + 2 = M + 1
/// entries each): entry 0 is atoms.zero, entries 1..count are the
/// transform's points interior[0..count) times `scale` (real part to
/// next_low, imaginary part to next_high), entry count + 1 is atoms.full.
/// In j order each entry is scanned before the clamp (mass, min_entry,
/// finite), then clamped (p < 0 becomes +0.0; NaN and -0.0 stay), stored
/// and added to total.
using FoldScanFn = void (*)(FoldAtoms atoms, const std::complex<double>* interior,
                            std::size_t count, double scale, double* next_low, double* next_high,
                            ChainScan& low, ChainScan& high);

/// Immutable kernel table for one ISA. Tables have static storage
/// duration; pointers to them stay valid for the life of the process.
struct FftKernels {
  Isa isa;
  const char* name;  ///< "scalar", "avx2" or "neon" — recorded in bench env
  Radix4PassFn radix4_pass;
  SpectrumMultiplyFn spectrum_multiply;
  FoldPackFn fold_pack;
  FoldScanFn fold_scan;
};

/// The kernel table in use (detected on first call; see file comment).
/// Lock-free after the first call — safe on any hot path.
const FftKernels& active_fft_kernels() noexcept;

/// Name of the active table ("scalar", "avx2", "neon") — what the bench
/// env fingerprint records so regressions across machines are
/// attributable to the ISA actually exercised.
const char* active_isa_name() noexcept;

/// Test seam: force a specific table. Returns false (and leaves the
/// active table unchanged) when the requested ISA is not compiled in or
/// not supported by this CPU. Not for use while transforms are running
/// on other threads.
bool set_active_kernels_for_testing(Isa isa) noexcept;

/// Test seam: drop any forced table and re-detect on next use.
void reset_active_kernels_for_testing() noexcept;

namespace detail {

/// The scalar table's entries, also called by the vector tables: NEON
/// for its fused radix-2 stage, its multiply and the fold passes, AVX2
/// for passes below vector width (n < 8) and the odd leftover bin of its
/// multiply.
/// Non-inline on purpose: an inline definition compiled in a vector TU
/// could be the copy the linker keeps — with vector encodings — breaking
/// the scalar fallback on older CPUs.
void radix4_pass_scalar(std::complex<double>* data, std::size_t n, std::size_t len,
                        const std::complex<double>* wa, const std::complex<double>* wb,
                        const std::complex<double>* wc, bool inverse, bool radix2_first);
void spectrum_multiply_scalar(const std::complex<double>* x, const std::complex<double>* ka,
                              const std::complex<double>* kb, const std::uint32_t* rev,
                              std::size_t n, std::size_t first, std::size_t last,
                              std::complex<double>* y);
FoldAtoms fold_pack_scalar(const double* q_low, const double* q_high, const double* tails,
                           const std::uint32_t* rev, std::size_t points, std::complex<double>* x);
void fold_scan_scalar(FoldAtoms atoms, const std::complex<double>* interior, std::size_t count,
                      double scale, double* next_low, double* next_high, ChainScan& low,
                      ChainScan& high);

/// The unpaired radix-2 stage alone: (x[2i], x[2i + 1]) -> (u + v, u - v)
/// for every pair of the n points.
void radix2_pass_scalar(std::complex<double>* data, std::size_t n);

/// Table getters for the vector TUs; null when the ISA is compiled out
/// (wrong architecture or -DLRD_DISABLE_SIMD). CPU support is checked
/// separately by the detector before the table goes live.
const FftKernels* avx2_fft_kernels() noexcept;
const FftKernels* neon_fft_kernels() noexcept;

}  // namespace detail

}  // namespace lrd::numerics::simd
