#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numerics/special_functions.hpp"

namespace {

using namespace lrd::numerics;

class ErfInvRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(ErfInvRoundTrip, ErfOfErfInvIsIdentity) {
  const double y = GetParam();
  EXPECT_NEAR(std::erf(erf_inv(y)), y, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Values, ErfInvRoundTrip,
                         ::testing::Values(-0.999999, -0.99, -0.9, -0.5, -0.1, -1e-8, 0.0, 1e-8,
                                           0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 0.999999));

TEST(ErfInv, KnownValues) {
  // erf(1) = 0.8427007929497149.
  EXPECT_NEAR(erf_inv(0.8427007929497149), 1.0, 1e-10);
  // erf(0.5) = 0.5204998778130465.
  EXPECT_NEAR(erf_inv(0.5204998778130465), 0.5, 1e-10);
}

TEST(ErfInv, OddSymmetry) {
  for (double y : {0.1, 0.35, 0.77, 0.995}) EXPECT_DOUBLE_EQ(erf_inv(-y), -erf_inv(y));
}

TEST(ErfInv, DomainErrors) {
  EXPECT_THROW(erf_inv(1.0), std::domain_error);
  EXPECT_THROW(erf_inv(-1.0), std::domain_error);
  EXPECT_THROW(erf_inv(1.5), std::domain_error);
  EXPECT_THROW(erf_inv(std::numeric_limits<double>::quiet_NaN()), std::domain_error);
}

TEST(NormalCdf, Symmetry) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  for (double x : {0.3, 1.0, 2.5}) EXPECT_NEAR(normal_cdf(x) + normal_cdf(-x), 1.0, 1e-14);
}

TEST(NeumaierSum, RecoverscancelledMass) {
  // Classic cancellation case: 1 + 1e100 + 1 - 1e100 = 2.
  EXPECT_DOUBLE_EQ(neumaier_sum({1.0, 1e100, 1.0, -1e100}), 2.0);
}

TEST(NeumaierSum, ManySmallTerms) {
  std::vector<double> xs(1000000, 0.1);
  EXPECT_NEAR(neumaier_sum(xs), 100000.0, 1e-7);
}

TEST(CompensatedSum, MatchesVectorVersion) {
  CompensatedSum acc;
  std::vector<double> xs;
  for (int i = 1; i <= 1000; ++i) {
    const double v = 1.0 / static_cast<double>(i);
    xs.push_back(v);
    acc.add(v);
  }
  EXPECT_DOUBLE_EQ(acc.value(), neumaier_sum(xs));
}

TEST(RelativeGap, Basics) {
  EXPECT_DOUBLE_EQ(relative_gap(0.0, 0.0), 0.0);
  EXPECT_NEAR(relative_gap(1.0, 1.0), 0.0, 1e-15);
  EXPECT_NEAR(relative_gap(0.9, 1.1), 0.2, 1e-12);
  EXPECT_NEAR(relative_gap(1.1, 0.9), 0.2, 1e-12);
}

}  // namespace
