// Tests for Durbin-Levinson synthesis (the reference the fGn generator
// is checked against) and the source shaper.
#include <gtest/gtest.h>

#include <cmath>

#include "numerics/random.hpp"
#include "traffic/fgn.hpp"
#include "traffic/gaussian_synthesis.hpp"
#include "traffic/smoother.hpp"

namespace {

using namespace lrd;

// ---- Durbin-Levinson -------------------------------------------------------

TEST(DurbinLevinson, Validation) {
  numerics::Rng rng(1);
  EXPECT_THROW(traffic::sample_gaussian_from_acf({1.0}, 2, rng), std::invalid_argument);
  EXPECT_THROW(traffic::sample_gaussian_from_acf({0.0, 0.0}, 2, rng), std::domain_error);
  // Non-positive-definite sequence: |gamma(1)| > gamma(0).
  EXPECT_THROW(traffic::sample_gaussian_from_acf({1.0, 1.5, 0.0}, 3, rng), std::domain_error);
}

TEST(DurbinLevinson, WhiteNoiseCase) {
  numerics::Rng rng(2);
  std::vector<double> acov(1024, 0.0);
  acov[0] = 4.0;
  auto x = traffic::sample_gaussian_from_acf(acov, 1024, rng);
  double s2 = 0.0;
  for (double v : x) s2 += v * v;
  EXPECT_NEAR(s2 / 1024.0, 4.0, 0.6);
}

TEST(DurbinLevinson, Ar1CovarianceIsReproduced) {
  // gamma(k) = phi^k / (1 - phi^2) is the AR(1) autocovariance.
  const double phi = 0.7;
  const std::size_t n = 4096;
  std::vector<double> acov(n);
  for (std::size_t k = 0; k < n; ++k)
    acov[k] = std::pow(phi, static_cast<double>(k)) / (1.0 - phi * phi);
  numerics::Rng rng(3);
  auto x = traffic::sample_gaussian_from_acf(acov, n, rng);
  // Uncentered lag-1 correlation should be ~phi.
  double c0 = 0.0, c1 = 0.0;
  for (std::size_t t = 0; t + 1 < n; ++t) {
    c0 += x[t] * x[t];
    c1 += x[t] * x[t + 1];
  }
  EXPECT_NEAR(c1 / c0, phi, 0.04);
}

TEST(DurbinLevinson, MatchesDaviesHarteForFgn) {
  // Two exact generators of the same process: their sample ACFs at small
  // lags must agree within Monte-Carlo error.
  const double h = 0.8;
  const std::size_t n = 8192;
  std::vector<double> acov(n);
  for (std::size_t k = 0; k < n; ++k) acov[k] = traffic::fgn_autocovariance(h, k);
  numerics::Rng rng_dl(4), rng_dh(5);
  auto x_dl = traffic::sample_gaussian_from_acf(acov, n, rng_dl);
  auto x_dh = traffic::generate_fgn(n, h, rng_dh);

  auto lag1 = [](const std::vector<double>& x) {
    double c0 = 0.0, c1 = 0.0;
    for (std::size_t t = 0; t + 1 < x.size(); ++t) {
      c0 += x[t] * x[t];
      c1 += x[t] * x[t + 1];
    }
    return c1 / c0;
  };
  EXPECT_NEAR(lag1(x_dl), traffic::fgn_autocovariance(h, 1), 0.05);
  EXPECT_NEAR(lag1(x_dl), lag1(x_dh), 0.08);
}

// ---- Shaper ----------------------------------------------------------------

TEST(Shaper, Validation) {
  traffic::RateTrace t({1.0, 2.0}, 0.1);
  EXPECT_THROW(traffic::shape_trace(t, 0.0), std::invalid_argument);
}

TEST(Shaper, CapsTheOutputAndConservesWork) {
  traffic::RateTrace t({10.0, 0.0, 6.0, 2.0, 8.0, 0.0, 0.0}, 0.5);
  const auto r = traffic::shape_trace(t, 5.0);
  EXPECT_LE(r.output.max(), 5.0 + 1e-12);
  EXPECT_NEAR(r.output.total_work() + r.final_backlog, t.total_work(), 1e-12);
  EXPECT_GT(r.max_backlog, 0.0);
  EXPECT_DOUBLE_EQ(r.max_delay, r.max_backlog / 5.0);
}

TEST(Shaper, GenerousCapIsTransparent) {
  traffic::RateTrace t({1.0, 3.0, 2.0}, 0.1);
  const auto r = traffic::shape_trace(t, 10.0);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(r.output[i], t[i]);
  EXPECT_DOUBLE_EQ(r.max_backlog, 0.0);
}

TEST(Shaper, NarrowsTheMarginal) {
  numerics::Rng rng(7);
  auto z = traffic::generate_fgn(1 << 14, 0.85, rng);
  for (double& v : z) v = std::exp(0.4 * v) * 5.0;
  traffic::RateTrace t(z, 0.01);
  const double cap = 1.3 * t.mean();
  const auto r = traffic::shape_trace(t, cap);
  EXPECT_LT(r.output.variance(), t.variance());
  EXPECT_LE(r.output.max(), cap + 1e-9);
  // Work conserved up to the final backlog.
  EXPECT_NEAR(r.output.total_work() + r.final_backlog, t.total_work(), 1e-6 * t.total_work());
}

TEST(Shaper, CapForMaxDelayMeetsTheBound) {
  numerics::Rng rng(8);
  auto z = traffic::generate_fgn(1 << 14, 0.8, rng);
  for (double& v : z) v = std::exp(0.3 * v) * 4.0;
  traffic::RateTrace t(z, 0.01);
  const double cap = traffic::cap_for_max_delay(t, 0.25);
  EXPECT_LE(traffic::shape_trace(t, cap).max_delay, 0.25 + 1e-9);
  // And it is not wastefully large: 1% below it the bound breaks (or the
  // cap is already at the mean-rate floor).
  if (cap > t.mean() * 1.02) {
    EXPECT_GT(traffic::shape_trace(t, cap * 0.97).max_delay, 0.25);
  }
}

}  // namespace
