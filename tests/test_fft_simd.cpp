// SIMD/scalar parity for the LRD_SIMD kernel tables (numerics/simd.hpp).
//
// The dispatch contract: every kernel table computes the same fused
// radix-2^2 butterflies in the same order, so forcing a different table
// through the test seam must not move any spectrum, round-trip, or
// convolution result by more than FMA-contraction noise. The suite pins
// that at 1e-12 across power-of-two sizes 8..16384 on both dispatch
// paths; on hardware without a vector ISA the cross-table checks skip
// and the scalar path is still exercised in full. The bit-reversed seams
// (FftPlan's stage-only entries and the convolver built on them) are
// held to exact equality instead, on every usable table.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/random.hpp"
#include "numerics/simd.hpp"
#include "test_helpers.hpp"

namespace {

using namespace lrd::numerics;
using cd = std::complex<double>;

using lrd::testing::KernelGuard;
using lrd::testing::usable_tables;

/// Forces the best vector table this build + CPU supports. False when
/// only the scalar table is usable (non-SIMD build or old hardware).
bool force_vector_kernels() {
  return simd::set_active_kernels_for_testing(simd::Isa::kAvx2) ||
         simd::set_active_kernels_for_testing(simd::Isa::kNeon);
}

std::vector<cd> random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cd> v(n);
  for (auto& z : v) z = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  return v;
}

std::vector<double> random_pmf(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  double total = 0.0;
  for (auto& x : v) {
    x = rng.uniform();
    total += x;
  }
  for (auto& x : v) x /= total;
  return v;
}

TEST(FftSimdDispatch, ActiveTableIsCoherent) {
  const simd::FftKernels& k = simd::active_fft_kernels();
  ASSERT_NE(k.radix4_pass, nullptr);
  ASSERT_NE(k.spectrum_multiply, nullptr);
  ASSERT_NE(k.name, nullptr);
  EXPECT_STREQ(k.name, simd::active_isa_name());
  const std::string name = k.name;
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon") << name;
#if !LRD_SIMD
  // -DLRD_DISABLE_SIMD compiles the vector tables out entirely; the
  // dispatcher must land on scalar, not merely prefer it.
  EXPECT_EQ(name, "scalar");
  EXPECT_FALSE(simd::set_active_kernels_for_testing(simd::Isa::kAvx2));
  EXPECT_FALSE(simd::set_active_kernels_for_testing(simd::Isa::kNeon));
  simd::reset_active_kernels_for_testing();
#endif
}

TEST(FftSimdDispatch, ScalarForceAlwaysSucceedsAndResetRedetects) {
  KernelGuard guard;
  const std::string detected = simd::active_isa_name();
  ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
  EXPECT_STREQ(simd::active_isa_name(), "scalar");
  simd::reset_active_kernels_for_testing();
  EXPECT_EQ(simd::active_isa_name(), detected);
}

TEST(FftSimdDispatch, UnavailableIsaIsRefusedWithoutSideEffects) {
  KernelGuard guard;
  ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
#if defined(__aarch64__)
  const simd::Isa missing = simd::Isa::kAvx2;
#else
  const simd::Isa missing = simd::Isa::kNeon;
#endif
  EXPECT_FALSE(simd::set_active_kernels_for_testing(missing));
  EXPECT_STREQ(simd::active_isa_name(), "scalar");
}

/// Power-of-two transform sizes 8..16384 (the solver's working range).
class FftSimdParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSimdParity, ForwardSpectraAgreeAcrossTables) {
  const std::size_t n = GetParam();
  KernelGuard guard;
  const auto input = random_complex(n, n);

  ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
  auto scalar_spec = input;
  fft_plan(n).forward(scalar_spec.data());

  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  auto vector_spec = input;
  fft_plan(n).forward(vector_spec.data());

  double scale = 1.0;
  for (const auto& z : scalar_spec) scale = std::max(scale, std::abs(z));
  for (std::size_t k = 0; k < n; ++k)
    EXPECT_NEAR(std::abs(vector_spec[k] - scalar_spec[k]), 0.0, 1e-12 * scale)
        << "n " << n << " bin " << k;
}

TEST_P(FftSimdParity, RoundTripRecoversInputOnBothTables) {
  const std::size_t n = GetParam();
  KernelGuard guard;
  const auto input = random_complex(n, 3 * n + 1);
  const bool have_vector = force_vector_kernels();
  simd::reset_active_kernels_for_testing();

  for (int pass = 0; pass < (have_vector ? 2 : 1); ++pass) {
    if (pass == 0) {
      ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
    } else {
      ASSERT_TRUE(force_vector_kernels());
    }
    auto data = input;
    const FftPlan& plan = fft_plan(n);
    plan.forward(data.data());
    plan.inverse(data.data());
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(data[i] * inv_n - input[i]), 0.0, 1e-12)
          << simd::active_isa_name() << " n " << n << " index " << i;
  }
}

TEST_P(FftSimdParity, RealRoundTripRecoversInputOnBothTables) {
  const std::size_t n = GetParam();
  KernelGuard guard;
  Rng rng(5 * n + 3);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  const bool have_vector = force_vector_kernels();
  simd::reset_active_kernels_for_testing();

  for (int pass = 0; pass < (have_vector ? 2 : 1); ++pass) {
    if (pass == 0) {
      ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
    } else {
      ASSERT_TRUE(force_vector_kernels());
    }
    const RealFft rfft(n);
    std::vector<cd> spec(rfft.spectrum_size());
    std::vector<double> out(n);
    rfft.forward(x.data(), x.size(), spec.data());
    rfft.inverse(spec.data(), out.data());
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(out[i], x[i], 1e-12) << simd::active_isa_name() << " n " << n << " i " << i;
  }
}

TEST_P(FftSimdParity, DualConvolutionAgreesAcrossTables) {
  // The solver-facing surface: DualKernelConvolver runs every epoch of
  // both occupancy chains, so its pmf outputs must agree whichever table
  // ran the butterflies of the kernel spectra and the packed round-trip.
  const std::size_t bins = GetParam();
  KernelGuard guard;
  const auto kernel_a = random_pmf(2 * bins + 1, bins + 7);
  const auto kernel_b = random_pmf(2 * bins + 1, bins + 13);
  const auto a = random_pmf(bins + 1, bins + 11);
  const auto b = random_pmf(bins + 1, bins + 17);
  // The solver's size: a wrapped circular transform, next_pow2(2M) points.
  const std::size_t n = next_pow2(2 * bins);
  const auto convolve_pair = [&] {
    const DualKernelConvolver dual(kernel_a, kernel_b, n);
    auto ws = dual.make_workspace();
    std::vector<double> out(2 * n);
    lrd::testing::convolve_window(dual, ws, a.data(), b.data(), a.size(), 0, n, out.data(),
                                  out.data() + n);
    return out;
  };

  ASSERT_TRUE(simd::set_active_kernels_for_testing(simd::Isa::kScalar));
  const auto scalar_out = convolve_pair();

  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const auto vector_out = convolve_pair();

  for (std::size_t i = 0; i < scalar_out.size(); ++i)
    EXPECT_NEAR(vector_out[i], scalar_out[i], 1e-12) << "bins " << bins << " i " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSimdParity,
                         ::testing::Values(8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
                                           8192, 16384));

// The bit-reversed seams: the solver's convolver skips the swap pass by
// writing its inputs straight into bit-reversed order, which must give
// the bits of the natural-order route exactly, on every table.

bool same_bits(const std::vector<cd>& a, const std::vector<cd>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(cd)) == 0;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FftPlanStages, FromBitrevEqualsForwardAndInverseOnEveryTable) {
  KernelGuard guard;
  for (const simd::Isa isa : usable_tables()) {
    ASSERT_TRUE(simd::set_active_kernels_for_testing(isa));
    for (std::size_t n = 2; n <= 32768; n *= 2) {
      const FftPlan& plan = fft_plan(n);
      const std::uint32_t* rev = plan.bitrev();
      const auto input = random_complex(n, 7 * n + 1);
      std::vector<cd> scattered(n);
      for (std::size_t i = 0; i < n; ++i) scattered[rev[i]] = input[i];

      auto natural = input;
      plan.forward(natural.data());
      auto staged = scattered;
      plan.forward_from_bitrev(staged.data());
      EXPECT_TRUE(same_bits(staged, natural)) << simd::active_isa_name() << " forward n " << n;

      natural = input;
      plan.inverse(natural.data());
      staged = scattered;
      plan.inverse_from_bitrev(staged.data());
      EXPECT_TRUE(same_bits(staged, natural)) << simd::active_isa_name() << " inverse n " << n;
    }
  }
}

/// The convolver as it was before the bit-reversed seams: pack in
/// natural order, forward(), the split-multiply in place, inverse(),
/// scale. Returns all n outputs of both signals.
std::pair<std::vector<double>, std::vector<double>> natural_order_dual_convolution(
    const std::vector<double>& ka, const std::vector<double>& kb, const std::vector<double>& a,
    const std::vector<double>& b, std::size_t n) {
  const FftPlan& plan = fft_plan(n);
  std::vector<cd> sa(n), sb(n), x(n);
  for (std::size_t i = 0; i < ka.size(); ++i) sa[i % n] += ka[i];
  for (std::size_t i = 0; i < kb.size(); ++i) sb[i % n] += kb[i];
  plan.forward(sa.data());
  plan.forward(sb.data());
  for (std::size_t j = 0; j < a.size(); ++j) x[j] = {a[j], b[j]};
  plan.forward(x.data());
  const std::size_t half = n / 2;
  {
    const cd ya = x[0].real() * sa[0];
    const cd yb = x[0].imag() * sb[0];
    x[0] = {ya.real() - yb.imag(), ya.imag() + yb.real()};
    const cd yah = x[half].real() * sa[half];
    const cd ybh = x[half].imag() * sb[half];
    x[half] = {yah.real() - ybh.imag(), yah.imag() + ybh.real()};
  }
  for (std::size_t k = 1; k < half; ++k) {
    const std::size_t m = n - k;
    const double ar = 0.5 * (x[k].real() + x[m].real());
    const double ai = 0.5 * (x[k].imag() - x[m].imag());
    const double br = 0.5 * (x[k].imag() + x[m].imag());
    const double bi = -0.5 * (x[k].real() - x[m].real());
    const double kar = sa[k].real(), kai = sa[k].imag();
    const double kbr = sb[k].real(), kbi = sb[k].imag();
    x[k] = {(ar * kar - ai * kai) - (br * kbi + bi * kbr),
            (ar * kai + ai * kar) + (br * kbr - bi * kbi)};
    const double mar = sa[m].real(), mai = sa[m].imag();
    const double mbr = sb[m].real(), mbi = sb[m].imag();
    x[m] = {(ar * mar + ai * mai) - (br * mbi - bi * mbr),
            (ar * mai - ai * mar) + (br * mbr + bi * mbi)};
  }
  plan.inverse(x.data());
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> out_a(n), out_b(n);
  for (std::size_t i = 0; i < n; ++i) {
    out_a[i] = x[i].real() * inv_n;
    out_b[i] = x[i].imag() * inv_n;
  }
  return {out_a, out_b};
}

TEST(DualKernelConvolver, MatchesNaturalOrderReferenceBitForBit) {
  // The solver's shapes: kernels of 2M + 1 entries, signals of M + 1, a
  // next_pow2(2M)-point transform (n = 2M for 1, 2, 1024 and 4096 bins,
  // n > 2M for 3, 96 and 100).
  KernelGuard guard;
  for (const simd::Isa isa : usable_tables()) {
    ASSERT_TRUE(simd::set_active_kernels_for_testing(isa));
    for (const std::size_t m : {1, 2, 3, 96, 100, 1024, 4096}) {
      const auto ka = random_pmf(2 * m + 1, m + 3);
      const auto kb = random_pmf(2 * m + 1, m + 5);
      const auto a = random_pmf(m + 1, m + 7);
      const auto b = random_pmf(m + 1, m + 9);
      const std::size_t n = next_pow2(2 * m);
      const auto [ref_a, ref_b] = natural_order_dual_convolution(ka, kb, a, b, n);

      // The workspace is used once before, so a stale buffer would show.
      const DualKernelConvolver dual(ka, kb, n);
      auto ws = dual.make_workspace();
      std::vector<double> out_a(n), out_b(n);
      lrd::testing::convolve_window(dual, ws, b.data(), a.data(), a.size(), 0, n, out_a.data(),
                                    out_b.data());
      lrd::testing::convolve_window(dual, ws, a.data(), b.data(), a.size(), 0, n, out_a.data(),
                                    out_b.data());
      EXPECT_TRUE(same_bits(out_a, ref_a)) << simd::active_isa_name() << " bins " << m;
      EXPECT_TRUE(same_bits(out_b, ref_b)) << simd::active_isa_name() << " bins " << m;
    }
  }
}

// The twiddle-free first passes and the spectrum multiply: the vector
// entries give the scalar table's bits, not just its values to 1e-12.

/// Random complex entries with the awkward doubles mixed in: signed
/// zeros, subnormals and entries of magnitude `big`.
std::vector<cd> awkward_complex(std::size_t n, std::uint64_t seed, double big) {
  Rng rng(seed);
  const double specials[] = {0.0, -0.0, 4.9e-324, -2.5e-310, big, -big};
  const auto pick = [&] {
    if (rng.uniform() < 0.7) return rng.uniform(-1.0, 1.0);
    return specials[static_cast<std::size_t>(rng.uniform() * 6.0) % 6];
  };
  std::vector<cd> v(n);
  for (auto& z : v) {
    const double re = pick();
    z = {re, pick()};
  }
  return v;
}

TEST(FftSimdKernels, VectorLen2PassMatchesScalarBitForBit) {
  // The first pass at even log2(n): one butterfly per 4-point block, whose
  // twiddles (1, -0), (1, -0) and (-0, -1) make every product exact, so
  // the FMA of the vector butterfly rounds the scalar kernel's sums.
  KernelGuard guard;
  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const simd::FftKernels& vec = simd::active_fft_kernels();
  const cd w = fft_plan(4).twiddles()[0];
  const cd wc{w.imag(), -w.real()};
  for (std::size_t n = 4; n <= 32768; n *= 2) {
    for (const bool inverse : {false, true}) {
      const auto input = awkward_complex(n, 11 * n + inverse, 1e300);
      auto scalar = input;
      simd::detail::radix4_pass_scalar(scalar.data(), n, 2, &w, &w, &wc, inverse, false);
      auto vector = input;
      vec.radix4_pass(vector.data(), n, 2, &w, &w, &wc, inverse, false);
      EXPECT_TRUE(same_bits(vector, scalar)) << vec.name << " n " << n << " inverse " << inverse;
    }
  }
}

TEST(FftSimdKernels, FusedRadix2PassMatchesUnfusedOnEveryTable) {
  // The first pass at odd log2(n) runs the unpaired radix-2 stage itself:
  // it must equal that stage as its own loop followed by the plain pass.
  KernelGuard guard;
  for (const simd::Isa isa : usable_tables()) {
    ASSERT_TRUE(simd::set_active_kernels_for_testing(isa));
    const simd::FftKernels& table = simd::active_fft_kernels();
    for (std::size_t n = 8; n <= 32768; n *= 4) {
      // The len == 4 stage's twiddles, as FftPlan builds them.
      const cd* tw = fft_plan(n).twiddles();
      const cd wa[2] = {tw[0], tw[n / 4]};
      const cd wb[2] = {tw[0], tw[n / 8]};
      const cd wc[2] = {{wb[0].imag(), -wb[0].real()}, {wb[1].imag(), -wb[1].real()}};
      for (const bool inverse : {false, true}) {
        const auto input = awkward_complex(n, 13 * n + inverse, 1e300);
        auto unfused = input;
        for (std::size_t i = 0; i < n; i += 2) {
          const cd u = unfused[i];
          const cd v = unfused[i + 1];
          unfused[i] = u + v;
          unfused[i + 1] = u - v;
        }
        table.radix4_pass(unfused.data(), n, 4, wa, wb, wc, inverse, false);
        auto fused = input;
        table.radix4_pass(fused.data(), n, 4, wa, wb, wc, inverse, true);
        EXPECT_TRUE(same_bits(fused, unfused))
            << table.name << " n " << n << " inverse " << inverse;
      }
    }
  }
}

TEST(FftSimdKernels, VectorSpectrumMultiplyMatchesScalarBitForBit) {
  // Bin ranges of odd and even length, so the vector entry's leftover bin
  // runs as well as its bin pairs. Entries stay below 1e150 so no product
  // overflows: an Inf - Inf NaN would compare by payload, not by value.
  KernelGuard guard;
  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const simd::FftKernels& vec = simd::active_fft_kernels();
  for (std::size_t n = 4; n <= 32768; n *= 2) {
    const std::uint32_t* rev = fft_plan(n).bitrev();
    const auto x = awkward_complex(n, 17 * n, 1e150);
    const auto ka = awkward_complex(n, 19 * n, 1e150);
    const auto kb = awkward_complex(n, 23 * n, 1e150);
    const std::size_t half = n / 2;
    const std::pair<std::size_t, std::size_t> ranges[] = {
        {1, half}, {1, half - 1}, {2, half}, {half / 2, half}, {1, 1}};
    for (const auto& [first, last] : ranges) {
      std::vector<cd> scalar(n, cd{-3.0, 7.0});
      std::vector<cd> vector = scalar;
      simd::detail::spectrum_multiply_scalar(x.data(), ka.data(), kb.data(), rev, n, first, last,
                                             scalar.data());
      vec.spectrum_multiply(x.data(), ka.data(), kb.data(), rev, n, first, last, vector.data());
      EXPECT_TRUE(same_bits(vector, scalar))
          << vec.name << " n " << n << " bins [" << first << ", " << last << ")";
    }
  }
}

// The fold step's pack and scan entries: the vector entries give the
// scalar table's bits at the solver's shapes (M + 1 points, a
// next_pow2(2M)-point transform, an interior of M - 1 points).

enum class Entries { kPmf, kAwkward, kNonFinite };

/// `count` entries of one kind. kPmf: a random pmf with round-off-sized
/// negatives. kAwkward puts -0.0, subnormals and +-1e300 at every third
/// entry from entry 1, and halfway an entry far above the running sum (a
/// compensated add then takes its |x| > |s| branch); kNonFinite puts NaN
/// and +-Inf first in that cycle.
std::vector<double> fold_entries(std::size_t count, std::uint64_t seed, Entries kind) {
  auto v = random_pmf(count, seed);
  Rng rng(seed + 1);
  for (auto& x : v) x += rng.uniform(-1e-17, 1e-17);
  if (kind == Entries::kPmf) return v;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> specials{-0.0, 4.9e-324, -2.5e-310, 1e300, -1e300};
  if (kind == Entries::kNonFinite)
    specials.insert(specials.begin(), {lrd::testing::hardware_nan(), inf, -inf});
  for (std::size_t j = 1; j < count; j += 3) v[j] = specials[(j / 3) % specials.size()];
  v[count / 6 * 3] = 1e6;  // a multiple of 3, so no special sits there
  return v;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const simd::ChainScan& a, const simd::ChainScan& b) {
  return same_bits(a.mass, b.mass) && same_bits(a.min_entry, b.min_entry) &&
         same_bits(a.total, b.total) && a.finite == b.finite;
}

bool same_bits(const simd::FoldAtoms& a, const simd::FoldAtoms& b) {
  return same_bits(a.zero.real(), b.zero.real()) && same_bits(a.zero.imag(), b.zero.imag()) &&
         same_bits(a.full.real(), b.full.real()) && same_bits(a.full.imag(), b.full.imag());
}

constexpr std::size_t kFoldBins[] = {1, 2, 3, 127, 128, 1024};
constexpr Entries kFoldKinds[] = {Entries::kPmf, Entries::kAwkward, Entries::kNonFinite};

TEST(FftSimdKernels, VectorFoldPackMatchesScalarBitForBit) {
  KernelGuard guard;
  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const simd::FftKernels& vec = simd::active_fft_kernels();
  for (const std::size_t bins : kFoldBins) {
    const std::size_t n = next_pow2(2 * bins);
    const std::uint32_t* rev = fft_plan(n).bitrev();
    for (const Entries kind : kFoldKinds) {
      const auto seed = 31 * bins + static_cast<std::uint64_t>(kind);
      const auto q_low = fold_entries(bins + 1, seed, kind);
      const auto q_high = fold_entries(bins + 1, seed + 2, kind);
      const auto tails = fold_entries(4 * (bins + 1), seed + 4, kind);
      std::vector<cd> scalar(n), vector(n);
      const simd::FoldAtoms want = simd::detail::fold_pack_scalar(
          q_low.data(), q_high.data(), tails.data(), rev, bins + 1, scalar.data());
      const simd::FoldAtoms got =
          vec.fold_pack(q_low.data(), q_high.data(), tails.data(), rev, bins + 1, vector.data());
      const int k = static_cast<int>(kind);
      EXPECT_TRUE(same_bits(got, want)) << vec.name << " bins " << bins << " kind " << k;
      EXPECT_TRUE(same_bits(vector, scalar)) << vec.name << " bins " << bins << " kind " << k;
    }
  }
}

TEST(FftSimdKernels, VectorFoldScanMatchesScalarBitForBit) {
  KernelGuard guard;
  if (!force_vector_kernels()) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const simd::FftKernels& vec = simd::active_fft_kernels();
  for (const std::size_t bins : kFoldBins) {
    const double scale = 1.0 / static_cast<double>(next_pow2(2 * bins));
    for (const Entries kind : kFoldKinds) {
      const auto seed = 37 * bins + static_cast<std::uint64_t>(kind);
      // The atoms, then the interior, as the transform leaves them (n times
      // the pmf).
      const auto re = fold_entries(bins + 1, seed, kind);
      const auto im = fold_entries(bins + 1, seed + 2, kind);
      const simd::FoldAtoms atoms{{re[0], im[0]}, {re[bins], im[bins]}};
      std::vector<cd> interior(bins - 1);
      for (std::size_t i = 0; i + 1 < bins; ++i)
        interior[i] = {re[i + 1] / scale, im[i + 1] / scale};

      std::vector<double> scalar_low(bins + 1), scalar_high(bins + 1);
      std::vector<double> vector_low(bins + 1), vector_high(bins + 1);
      simd::ChainScan want_low, want_high, got_low, got_high;
      simd::detail::fold_scan_scalar(atoms, interior.data(), bins - 1, scale, scalar_low.data(),
                                     scalar_high.data(), want_low, want_high);
      vec.fold_scan(atoms, interior.data(), bins - 1, scale, vector_low.data(),
                    vector_high.data(), got_low, got_high);
      const int k = static_cast<int>(kind);
      EXPECT_TRUE(same_bits(vector_low, scalar_low))
          << vec.name << " bins " << bins << " kind " << k;
      EXPECT_TRUE(same_bits(vector_high, scalar_high))
          << vec.name << " bins " << bins << " kind " << k;
      EXPECT_TRUE(same_bits(got_low, want_low)) << vec.name << " bins " << bins << " kind " << k;
      EXPECT_TRUE(same_bits(got_high, want_high)) << vec.name << " bins " << bins << " kind " << k;
      const bool finite = kind != Entries::kNonFinite;
      EXPECT_EQ(want_low.finite, finite) << "bins " << bins << " kind " << k;
      EXPECT_EQ(want_high.finite, finite) << "bins " << bins << " kind " << k;
    }
  }
}

}  // namespace
