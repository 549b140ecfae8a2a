#include <gtest/gtest.h>

#include <cmath>

#include "analysis/acf.hpp"
#include "numerics/random.hpp"
#include "traffic/fgn.hpp"

namespace {

using namespace lrd;
using traffic::fgn_autocovariance;
using traffic::generate_fgn;

TEST(FgnAutocovariance, LagZeroIsUnitVariance) {
  for (double h : {0.5, 0.7, 0.9}) EXPECT_DOUBLE_EQ(fgn_autocovariance(h, 0), 1.0);
}

TEST(FgnAutocovariance, WhiteNoiseAtHalf) {
  for (std::size_t k : {1u, 2u, 10u, 100u})
    EXPECT_NEAR(fgn_autocovariance(0.5, k), 0.0, 1e-12);
}

TEST(FgnAutocovariance, KnownLagOne) {
  // gamma(1) = 2^{2H-1} - 1.
  for (double h : {0.6, 0.75, 0.9})
    EXPECT_NEAR(fgn_autocovariance(h, 1), std::pow(2.0, 2.0 * h - 1.0) - 1.0, 1e-14);
}

TEST(FgnAutocovariance, PositiveAndDecayingForPersistent) {
  const double h = 0.85;
  double prev = fgn_autocovariance(h, 1);
  for (std::size_t k = 2; k < 200; ++k) {
    const double g = fgn_autocovariance(h, k);
    EXPECT_GT(g, 0.0);
    EXPECT_LT(g, prev);
    prev = g;
  }
}

TEST(FgnAutocovariance, HyperbolicTail) {
  // gamma(k) ~ H(2H-1) k^{2H-2}: ratio at doubled lag -> 2^{2H-2}.
  const double h = 0.8;
  const double r = fgn_autocovariance(h, 2048) / fgn_autocovariance(h, 1024);
  EXPECT_NEAR(r, std::pow(2.0, 2.0 * h - 2.0), 1e-3);
}

TEST(FgnAutocovariance, NegativeCorrelationForAntipersistent) {
  EXPECT_LT(fgn_autocovariance(0.3, 1), 0.0);
}

TEST(FgnAutocovariance, RejectsBadHurst) {
  EXPECT_THROW(fgn_autocovariance(0.0, 1), std::invalid_argument);
  EXPECT_THROW(fgn_autocovariance(1.0, 1), std::invalid_argument);
}

TEST(GenerateFgn, Validation) {
  numerics::Rng rng(1);
  EXPECT_THROW(generate_fgn(0, 0.8, rng), std::invalid_argument);
  EXPECT_THROW(generate_fgn(16, 1.2, rng), std::invalid_argument);
}

TEST(GenerateFgn, RequestedLengthIsHonored) {
  numerics::Rng rng(2);
  EXPECT_EQ(generate_fgn(1000, 0.7, rng).size(), 1000u);  // non-power-of-two
  EXPECT_EQ(generate_fgn(1024, 0.7, rng).size(), 1024u);
  EXPECT_EQ(generate_fgn(1, 0.7, rng).size(), 1u);
}

// Uncentered autocovariance against the KNOWN zero mean. For strongly LRD
// series the usual sample-mean-centered ACF is heavily negatively biased
// (the sample mean of n points has variance ~ n^{2H-2}), so validating the
// generator requires the oracle-mean estimator.
std::vector<double> uncentered_acov(const std::vector<double>& x, std::size_t max_lag) {
  std::vector<double> out(max_lag + 1, 0.0);
  for (std::size_t k = 0; k <= max_lag; ++k) {
    double s = 0.0;
    for (std::size_t t = 0; t + k < x.size(); ++t) s += x[t] * x[t + k];
    out[k] = s / static_cast<double>(x.size() - k);
  }
  return out;
}

class FgnStatistics : public ::testing::TestWithParam<double> {};

TEST_P(FgnStatistics, MeanVarianceAndAcfMatchTheory) {
  const double h = GetParam();
  numerics::Rng rng(static_cast<std::uint64_t>(h * 1000));
  const std::size_t n = 1 << 17;
  auto x = generate_fgn(n, h, rng);

  // The sample-mean standard deviation grows like n^{H-1}.
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  const double mean_sigma = std::pow(static_cast<double>(n), h - 1.0);
  EXPECT_NEAR(mean, 0.0, 4.0 * mean_sigma);

  // The variance estimator of an LRD series also converges slowly (the
  // squared process inherits long memory); widen its band accordingly.
  auto acov = uncentered_acov(x, 4);
  EXPECT_NEAR(acov[0], 1.0, std::max(0.05, 0.5 * mean_sigma));
  for (std::size_t k = 1; k <= 4; ++k)
    EXPECT_NEAR(acov[k] / acov[0], fgn_autocovariance(h, k), 0.03)
        << "H = " << h << " lag " << k;
}

INSTANTIATE_TEST_SUITE_P(HurstValues, FgnStatistics, ::testing::Values(0.5, 0.6, 0.7, 0.83, 0.9));

TEST(GenerateFgn, LongLagCorrelationSurvives) {
  // For H = 0.9 the lag-256 autocovariance is still ~ 0.24; a
  // short-memory generator would show ~ 0. Uses the oracle-mean estimator
  // (see uncentered_acov above) to avoid the LRD centering bias.
  numerics::Rng rng(77);
  auto x = generate_fgn(1 << 18, 0.9, rng);
  auto acov = uncentered_acov(x, 256);
  EXPECT_NEAR(acov[256] / acov[0], fgn_autocovariance(0.9, 256), 0.06);
  EXPECT_GT(acov[256] / acov[0], 0.12);
}

TEST(GenerateFgn, DeterministicGivenSeed) {
  numerics::Rng a(5), b(5);
  auto x = generate_fgn(64, 0.8, a);
  auto y = generate_fgn(64, 0.8, b);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_DOUBLE_EQ(x[i], y[i]);
}

}  // namespace
