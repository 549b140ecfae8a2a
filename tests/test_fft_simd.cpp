// SIMD/scalar parity for the LRD_SIMD kernel tables (numerics/simd.hpp).
//
// The dispatch contract: every kernel table computes the same fused
// radix-2^2 butterflies in the same order, so forcing a different table
// through the test seam must not move any spectrum, round-trip, or
// convolution result by more than FMA-contraction noise. The suite pins
// that at 1e-12 across power-of-two sizes 8..16384 on both dispatch
// paths; on hardware without a vector ISA the cross-table checks skip
// and the scalar path is still exercised in full.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <vector>

#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/random.hpp"
#include "numerics/simd.hpp"

namespace {

using namespace lrd::numerics;
using cd = std::complex<double>;

/// Restores runtime detection no matter how a test exits.
struct KernelGuard {
  KernelGuard() = default;
  KernelGuard(const KernelGuard&) = delete;
  KernelGuard& operator=(const KernelGuard&) = delete;
  ~KernelGuard() { simd::reset_active_kernels_for_testing(); }
};

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
    dual.convolve_into(a.data(), b.data(), a.size(), ws, out.data(), out.data() + n);
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

}  // namespace
