#include <gtest/gtest.h>

#include <cmath>

#include "dist/marginal.hpp"
#include "numerics/random.hpp"

namespace {

using lrd::dist::Marginal;

TEST(Marginal, ValidatesInput) {
  EXPECT_THROW(Marginal({}, {}), std::invalid_argument);
  EXPECT_THROW(Marginal({1.0}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Marginal({-1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(Marginal({1.0}, {-0.5}), std::invalid_argument);
  EXPECT_THROW(Marginal({1.0, 2.0}, {0.0, 0.0}), std::invalid_argument);
}

TEST(Marginal, SortsAndNormalizes) {
  Marginal m({3.0, 1.0, 2.0}, {2.0, 2.0, 4.0});
  ASSERT_EQ(m.size(), 3u);
  EXPECT_DOUBLE_EQ(m.rates()[0], 1.0);
  EXPECT_DOUBLE_EQ(m.rates()[1], 2.0);
  EXPECT_DOUBLE_EQ(m.rates()[2], 3.0);
  EXPECT_NEAR(m.probs()[0], 0.25, 1e-15);
  EXPECT_NEAR(m.probs()[1], 0.5, 1e-15);
  EXPECT_NEAR(m.probs()[2], 0.25, 1e-15);
}

TEST(Marginal, MergesDuplicateRates) {
  Marginal m({2.0, 2.0, 5.0}, {0.25, 0.25, 0.5});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.probs()[0], 0.5);
}

TEST(Marginal, DropsZeroProbabilityStates) {
  Marginal m({1.0, 2.0, 3.0}, {0.5, 0.0, 0.5});
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m.rates()[1], 3.0);
}

TEST(Marginal, Moments) {
  Marginal m({0.0, 10.0}, {0.75, 0.25});
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.variance(), 18.75);  // p(1-p) * 100
  EXPECT_DOUBLE_EQ(m.stddev(), std::sqrt(18.75));
  EXPECT_DOUBLE_EQ(m.min_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.peak_rate(), 10.0);
}

TEST(Marginal, ConstantFactory) {
  auto m = Marginal::constant(7.0);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m.mean(), 7.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(Marginal, ServiceRateForUtilization) {
  Marginal m({4.0, 12.0}, {0.5, 0.5});  // mean 8
  EXPECT_DOUBLE_EQ(m.service_rate_for_utilization(0.8), 10.0);
  EXPECT_THROW(m.service_rate_for_utilization(0.0), std::invalid_argument);
  EXPECT_THROW(m.service_rate_for_utilization(1.0), std::invalid_argument);
}

class MarginalScaling : public ::testing::TestWithParam<double> {};

TEST_P(MarginalScaling, PreservesMeanScalesVariance) {
  const double a = GetParam();
  // min rate chosen so no factor in the sweep trips the clamp at zero.
  Marginal m({4.0, 6.0, 10.0, 14.0}, {0.1, 0.4, 0.4, 0.1});
  Marginal s = m.scaled(a);
  EXPECT_NEAR(s.mean(), m.mean(), 1e-12);
  EXPECT_NEAR(s.variance(), a * a * m.variance(), 1e-10);
  EXPECT_EQ(s.size(), m.size());
}

INSTANTIATE_TEST_SUITE_P(Factors, MarginalScaling, ::testing::Values(0.5, 0.8, 1.0, 1.2, 1.5));

TEST(Marginal, ScalingIdentityAtOne) {
  Marginal m({1.0, 3.0}, {0.5, 0.5});
  Marginal s = m.scaled(1.0);
  EXPECT_DOUBLE_EQ(s.rates()[0], 1.0);
  EXPECT_DOUBLE_EQ(s.rates()[1], 3.0);
}

TEST(Marginal, ScalingClampsNegativeRates) {
  // Widening can push the lowest rate below zero; it must clamp (rates
  // are fluid rates) and therefore shift the mean slightly upward.
  Marginal m({1.0, 9.0}, {0.5, 0.5});  // mean 5
  Marginal s = m.scaled(2.0);          // raw rates {-3, 13} -> {0, 13}
  EXPECT_DOUBLE_EQ(s.min_rate(), 0.0);
  EXPECT_DOUBLE_EQ(s.peak_rate(), 13.0);
  EXPECT_THROW(m.scaled(0.0), std::invalid_argument);
}

class MarginalSuperposition : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MarginalSuperposition, PreservesMeanDividesVariance) {
  const std::size_t n = GetParam();
  Marginal m({0.0, 5.0, 20.0}, {0.3, 0.5, 0.2});
  Marginal s = m.superposed(n);
  EXPECT_NEAR(s.mean(), m.mean(), 1e-6 * m.mean());
  // Averaging n iid streams divides the variance by n (up to lattice and
  // compression error).
  EXPECT_NEAR(s.variance(), m.variance() / static_cast<double>(n), 0.02 * m.variance());
  // Support shrinks toward the mean.
  EXPECT_GE(s.min_rate(), m.min_rate() - 1e-12);
  EXPECT_LE(s.peak_rate(), m.peak_rate() + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Streams, MarginalSuperposition, ::testing::Values(1, 2, 3, 5, 8, 10));

TEST(Marginal, SuperposedOfConstantIsConstant) {
  auto m = Marginal::constant(4.0);
  auto s = m.superposed(6);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
}

TEST(Marginal, SuperposedValidation) {
  Marginal m({1.0, 2.0}, {0.5, 0.5});
  EXPECT_THROW(m.superposed(0), std::invalid_argument);
  EXPECT_THROW(m.superposed(2, 1), std::invalid_argument);
}

TEST(Marginal, SuperposedOutputSizeIsBounded) {
  Marginal m({0.0, 1.0, 2.0, 3.0, 4.0}, {0.2, 0.2, 0.2, 0.2, 0.2});
  auto s = m.superposed(10, 64);
  EXPECT_LE(s.size(), 64u + 1u);
  EXPECT_GE(s.size(), 16u);  // should not collapse to a handful of points
}

TEST(Marginal, SampleMatchesProbabilities) {
  Marginal m({1.0, 2.0, 3.0}, {0.2, 0.3, 0.5});
  lrd::numerics::Rng rng(77);
  std::vector<int> counts(3, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[m.sample_index(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.2, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.5, 0.01);
}

}  // namespace
