#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <thread>

#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/random.hpp"

namespace {

using namespace lrd::numerics;
using cd = std::complex<double>;

TEST(NextPow2, Basics) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(4), 4u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(1023), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
  EXPECT_THROW(next_pow2(0), std::invalid_argument);
}

TEST(IsPow2, Basics) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1u << 20));
  EXPECT_FALSE(is_pow2((1u << 20) + 1));
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<cd> data(3);
  EXPECT_THROW(fft_inplace(data, false), std::invalid_argument);
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<cd> data{cd{3.0, -2.0}};
  auto out = fft(data);
  EXPECT_EQ(out[0], data[0]);
}

TEST(Fft, DeltaTransformsToConstant) {
  std::vector<cd> data(8, cd{0.0, 0.0});
  data[0] = 1.0;
  auto out = fft(data);
  for (const auto& z : out) {
    EXPECT_NEAR(z.real(), 1.0, 1e-12);
    EXPECT_NEAR(z.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  std::vector<cd> data(16, cd{1.0, 0.0});
  auto out = fft(data);
  EXPECT_NEAR(out[0].real(), 16.0, 1e-12);
  for (std::size_t k = 1; k < out.size(); ++k) EXPECT_NEAR(std::abs(out[k]), 0.0, 1e-11);
}

TEST(Fft, MatchesDirectDftOnRandomInput) {
  Rng rng(7);
  const std::size_t n = 64;
  std::vector<cd> data(n);
  for (auto& z : data) z = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  auto fast = fft(data);
  for (std::size_t k = 0; k < n; ++k) {
    cd direct{0.0, 0.0};
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k * j) / static_cast<double>(n);
      direct += data[j] * cd{std::cos(ang), std::sin(ang)};
    }
    EXPECT_NEAR(std::abs(fast[k] - direct), 0.0, 1e-9) << "bin " << k;
  }
}

class FftRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftRoundTrip, InverseRecoversInput) {
  const std::size_t n = GetParam();
  Rng rng(n);
  std::vector<cd> data(n);
  for (auto& z : data) z = {rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)};
  auto out = ifft(fft(data));
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(std::abs(out[i] - data[i]), 0.0, 1e-10) << "index " << i;
}

TEST_P(FftRoundTrip, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<cd> data(n);
  double time_energy = 0.0;
  for (auto& z : data) {
    z = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
    time_energy += std::norm(z);
  }
  auto spec = fft(data);
  double freq_energy = 0.0;
  for (const auto& z : spec) freq_energy += std::norm(z);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy, 1e-8 * time_energy);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTrip,
                         ::testing::Values(1, 2, 4, 8, 32, 128, 1024, 4096));

TEST(Convolution, DirectKnownResult) {
  auto out = convolve_direct({1.0, 2.0, 3.0}, {4.0, 5.0});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_DOUBLE_EQ(out[0], 4.0);
  EXPECT_DOUBLE_EQ(out[1], 13.0);
  EXPECT_DOUBLE_EQ(out[2], 22.0);
  EXPECT_DOUBLE_EQ(out[3], 15.0);
}

TEST(Convolution, EmptyInputThrows) {
  EXPECT_THROW(convolve_direct({}, {1.0}), std::invalid_argument);
  EXPECT_THROW(convolve_fft({1.0}, {}), std::invalid_argument);
}

class ConvolutionAgreement : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(ConvolutionAgreement, FftMatchesDirect) {
  const auto [na, nb] = GetParam();
  Rng rng(na * 1000 + nb);
  std::vector<double> a(na), b(nb);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  auto d = convolve_direct(a, b);
  auto f = convolve_fft(a, b);
  ASSERT_EQ(d.size(), f.size());
  for (std::size_t i = 0; i < d.size(); ++i) EXPECT_NEAR(d[i], f[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ConvolutionAgreement,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                                           std::pair<std::size_t, std::size_t>{1, 17},
                                           std::pair<std::size_t, std::size_t>{33, 1},
                                           std::pair<std::size_t, std::size_t>{7, 13},
                                           std::pair<std::size_t, std::size_t>{100, 100},
                                           std::pair<std::size_t, std::size_t>{257, 513}));

TEST(Convolution, SelfConvolvePowersOfBinomial) {
  // (1 + x)^4 coefficients via repeated self-convolution of {1, 1}.
  auto out = self_convolve({1.0, 1.0}, 4);
  ASSERT_EQ(out.size(), 5u);
  const double expect[] = {1, 4, 6, 4, 1};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(out[i], expect[i], 1e-12);
}

TEST(Convolution, SelfConvolveIdentity) {
  auto out = self_convolve({0.25, 0.75}, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 0.25);
  EXPECT_DOUBLE_EQ(out[1], 0.75);
}

TEST(FftPlanCache, ForwardInverseIsIdentityPerCachedSize) {
  for (const std::size_t n : {2u, 4u, 8u, 32u, 256u, 1024u}) {
    const FftPlan& plan = fft_plan(n);
    EXPECT_EQ(plan.size(), n);
    Rng rng(n);
    std::vector<cd> data(n), orig(n);
    for (std::size_t i = 0; i < n; ++i) orig[i] = data[i] = {rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
    plan.forward(data.data());
    plan.inverse(data.data());
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(std::abs(data[i] * inv_n - orig[i]), 0.0, 1e-10) << "n " << n << " index " << i;
  }
}

TEST(FftPlanCache, ReturnsTheSameInstanceAndNeverEvicts) {
  const FftPlan* first = &fft_plan(512);
  const std::size_t size_after_first = fft_plan_cache_size();
  EXPECT_GE(size_after_first, 1u);
  const FftPlan* second = &fft_plan(512);
  EXPECT_EQ(first, second);
  EXPECT_EQ(fft_plan_cache_size(), size_after_first);
  (void)fft_plan(2048);
  EXPECT_GE(fft_plan_cache_size(), size_after_first);
  // The reference from before the new insertion is still valid.
  EXPECT_EQ(&fft_plan(512), first);
}

TEST(FftPlanCache, RejectsNonPowerOfTwo) {
  EXPECT_THROW(fft_plan(0), std::invalid_argument);
  EXPECT_THROW(fft_plan(3), std::invalid_argument);
  EXPECT_THROW(fft_plan(100), std::invalid_argument);
}

TEST(FftPlanCache, CrossThreadReuse) {
  // All threads must observe the same plan instance and produce correct
  // transforms through it concurrently (run under TSan in CI).
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t n = 128;
  std::vector<const FftPlan*> seen(kThreads, nullptr);
  std::vector<double> max_err(kThreads, 1.0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &seen, &max_err] {
      const FftPlan& plan = fft_plan(n);
      seen[t] = &plan;
      Rng rng(1000 + t);
      std::vector<cd> data(n), orig(n);
      for (std::size_t i = 0; i < n; ++i) orig[i] = data[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
      plan.forward(data.data());
      plan.inverse(data.data());
      double err = 0.0;
      for (std::size_t i = 0; i < n; ++i)
        err = std::max(err, std::abs(data[i] / static_cast<double>(n) - orig[i]));
      max_err[t] = err;
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_LT(max_err[t], 1e-10) << "thread " << t;
}

class RealFftParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftParity, MatchesComplexTransform) {
  const std::size_t n = GetParam();
  Rng rng(n + 17);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const RealFft rfft(n);
  std::vector<cd> half(rfft.spectrum_size());
  rfft.forward(x.data(), x.size(), half.data());
  const auto full = fft_real(x, n);
  for (std::size_t k = 0; k <= n / 2; ++k)
    EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-12 * static_cast<double>(n) + 1e-12)
        << "n " << n << " bin " << k;
}

TEST_P(RealFftParity, RoundTripRecoversInput) {
  const std::size_t n = GetParam();
  Rng rng(2 * n + 1);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-2.0, 2.0);
  const RealFft rfft(n);
  std::vector<cd> spec(rfft.spectrum_size());
  std::vector<double> out(n);
  rfft.forward(x.data(), x.size(), spec.data());
  rfft.inverse(spec.data(), out.data());
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(out[i], x[i], 1e-11) << "index " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealFftParity, ::testing::Values(2, 4, 8, 64, 256, 1024));

TEST(RealFft, ZeroPadsShortSignals) {
  const std::size_t n = 32;
  Rng rng(3);
  std::vector<double> x(11);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const RealFft rfft(n);
  std::vector<cd> half(rfft.spectrum_size());
  rfft.forward(x.data(), x.size(), half.data());
  const auto full = fft_real(x, n);  // pads internally
  for (std::size_t k = 0; k <= n / 2; ++k) EXPECT_NEAR(std::abs(half[k] - full[k]), 0.0, 1e-12);
}

TEST(RealFft, RejectsBadSizes) {
  EXPECT_THROW(RealFft(0), std::invalid_argument);
  EXPECT_THROW(RealFft(1), std::invalid_argument);
  EXPECT_THROW(RealFft(12), std::invalid_argument);
}

TEST(DualKernelConvolver, MatchesTwoSequentialConvolutions) {
  // Output k of the n-point convolver is the sum of the linear
  // convolution's entries k, k + n, k + 2n, ...: with n >= len + kernel - 1
  // that is the linear convolution itself (256), below it the result is
  // wrapped (128), and at 64 the kernel is longer than n and wraps too.
  Rng rng(31);
  const std::size_t m = 48;
  std::vector<double> ka(2 * m + 1), kb(2 * m + 1), a(m + 1), b(m + 1);
  for (auto& v : ka) v = rng.uniform(-1.0, 1.0);
  for (auto& v : kb) v = rng.uniform(-1.0, 1.0);
  for (auto& v : a) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  const auto lin_a = convolve_direct(a, ka);
  const auto lin_b = convolve_direct(b, kb);
  for (const std::size_t n : {std::size_t{256}, std::size_t{128}, std::size_t{64}}) {
    std::vector<double> ref_a(n, 0.0), ref_b(n, 0.0);
    for (std::size_t i = 0; i < lin_a.size(); ++i) ref_a[i % n] += lin_a[i];
    for (std::size_t i = 0; i < lin_b.size(); ++i) ref_b[i % n] += lin_b[i];
    const DualKernelConvolver dual(ka, kb, n);
    auto ws = dual.make_workspace();
    std::vector<double> out_a(n), out_b(n);
    dual.convolve_into(a.data(), b.data(), a.size(), ws, 0, n, out_a.data(), out_b.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out_a[i], ref_a[i], 1e-10) << "n " << n << " a " << i;
      EXPECT_NEAR(out_b[i], ref_b[i], 1e-10) << "n " << n << " b " << i;
    }
  }
}

TEST(DualKernelConvolver, PackedPmfPairConservesBothMasses) {
  // At the solver's size (n = 2M, so the output is wrapped) every
  // output sums to signal mass times kernel mass, like the linear one.
  Rng rng(37);
  const std::size_t m = 64;
  auto make_pmf = [&](std::size_t n) {
    std::vector<double> v(n);
    double total = 0.0;
    for (auto& x : v) { x = rng.uniform(); total += x; }
    for (auto& x : v) x /= total;
    return v;
  };
  const auto ka = make_pmf(2 * m + 1), kb = make_pmf(2 * m + 1);
  const auto a = make_pmf(m + 1), b = make_pmf(m + 1);
  const DualKernelConvolver dual(ka, kb, 2 * m);
  auto ws = dual.make_workspace();
  std::vector<double> out_a(2 * m), out_b(2 * m);
  dual.convolve_into(a.data(), b.data(), a.size(), ws, 0, 2 * m, out_a.data(), out_b.data());
  double ta = 0.0, tb = 0.0;
  for (double v : out_a) ta += v;
  for (double v : out_b) tb += v;
  EXPECT_NEAR(ta, 1.0, 1e-12);
  EXPECT_NEAR(tb, 1.0, 1e-12);
}

TEST(DualKernelConvolver, RejectsBadConfigurations) {
  EXPECT_THROW(DualKernelConvolver({}, {1.0}, 4), std::invalid_argument);
  EXPECT_THROW(DualKernelConvolver({1.0}, {}, 4), std::invalid_argument);
  EXPECT_THROW(DualKernelConvolver({1.0, 2.0}, {1.0}, 4), std::invalid_argument);
  EXPECT_THROW(DualKernelConvolver({1.0}, {1.0}, 0), std::invalid_argument);
  EXPECT_THROW(DualKernelConvolver({1.0}, {1.0}, 1), std::invalid_argument);
  EXPECT_THROW(DualKernelConvolver({1.0}, {1.0}, 6), std::invalid_argument);
  const DualKernelConvolver dual({1.0, 1.0}, {1.0, 1.0}, 2);
  auto ws = dual.make_workspace();
  std::vector<double> a{1.0, 2.0, 3.0}, out(4);
  // A signal longer than n has no n-point circular convolution here.
  EXPECT_THROW(dual.convolve_into(a.data(), a.data(), 3, ws, 0, 2, out.data(), out.data()),
               std::invalid_argument);
  EXPECT_THROW(dual.convolve_into(a.data(), a.data(), 0, ws, 0, 2, out.data(), out.data()),
               std::invalid_argument);
  // The output window must lie inside the n circular outputs.
  EXPECT_THROW(dual.convolve_into(a.data(), a.data(), 2, ws, 1, 2, out.data(), out.data()),
               std::invalid_argument);
  EXPECT_THROW(dual.convolve_into(a.data(), a.data(), 2, ws, 3, 0, out.data(), out.data()),
               std::invalid_argument);
}

TEST(Convolution, SelfConvolveSpectrumMatchesIterative) {
  // Straddles the small-output direct fallback (out_len <= 64): n = 6
  // stays direct, n = 40 takes the spectrum-powering path.
  Rng rng(41);
  std::vector<double> a(12);
  double total = 0.0;
  for (auto& v : a) { v = rng.uniform(); total += v; }
  for (auto& v : a) v /= total;
  for (const std::size_t n : {2u, 6u, 8u, 40u}) {
    std::vector<double> iterative = a;
    for (std::size_t k = 1; k < n; ++k) iterative = convolve_direct(iterative, a);
    const auto fast = self_convolve(a, n);
    ASSERT_EQ(fast.size(), iterative.size()) << "n " << n;
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_NEAR(fast[i], iterative[i], 1e-12) << "n " << n << " index " << i;
  }
}

}  // namespace
