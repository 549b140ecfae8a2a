#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "numerics/random.hpp"
#include "test_helpers.hpp"

namespace {

using lrd::dist::TruncatedPareto;
using lrd::testing::integrate_tail;
using lrd::testing::simpson;

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(TruncatedPareto, ConstructionValidation) {
  EXPECT_THROW(TruncatedPareto(0.0, 1.5, 1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedPareto(1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedPareto(1.0, 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedPareto(1.0, 1.5, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(TruncatedPareto(1.0, 1.5, kInf));
}

TEST(TruncatedPareto, CcdfMatchesEq6) {
  TruncatedPareto d(2.0, 1.4, 100.0);
  // Pr{T > t} = ((t + theta)/theta)^-alpha for t < T_c.
  EXPECT_DOUBLE_EQ(d.ccdf_open(0.0), 1.0);
  EXPECT_DOUBLE_EQ(d.ccdf_open(-1.0), 1.0);
  EXPECT_NEAR(d.ccdf_open(2.0), std::pow(2.0, -1.4), 1e-14);
  EXPECT_NEAR(d.ccdf_open(18.0), std::pow(10.0, -1.4), 1e-14);
  EXPECT_DOUBLE_EQ(d.ccdf_open(100.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ccdf_open(1000.0), 0.0);
}

TEST(TruncatedPareto, AtomAtCutoff) {
  TruncatedPareto d(2.0, 1.4, 100.0);
  const double atom = std::pow(102.0 / 2.0, -1.4);
  EXPECT_NEAR(d.atom_mass(), atom, 1e-15);
  // Closed ccdf keeps the atom: Pr{T >= T_c} = atom, Pr{T > T_c} = 0.
  EXPECT_NEAR(d.ccdf_closed(100.0), atom, 1e-15);
  EXPECT_DOUBLE_EQ(d.ccdf_open(100.0), 0.0);
  EXPECT_DOUBLE_EQ(d.ccdf_closed(100.0 + 1e-9), 0.0);
}

TEST(TruncatedPareto, CcdfBothMatchesOpenAndClosed) {
  // The solver builds both increment pmfs from one ccdf_both call per
  // grid point and rate, so each half must equal its single call bit for
  // bit: below 0, inside (0, T_c), exactly at the atom, past T_c, and
  // with no cutoff at all.
  const TruncatedPareto d(2.0, 1.4, 100.0);
  const TruncatedPareto untruncated(2.0, 1.4, kInf);
  for (const TruncatedPareto* dist : {&d, &untruncated}) {
    for (const double t : {-3.0, 0.0, 0.25, 18.0, 100.0, 100.5, 1e9, kInf}) {
      double open = -1.0, closed = -1.0;
      dist->ccdf_both(t, open, closed);
      EXPECT_EQ(open, dist->ccdf_open(t)) << "t " << t << " cutoff " << dist->cutoff();
      EXPECT_EQ(closed, dist->ccdf_closed(t)) << "t " << t << " cutoff " << dist->cutoff();
    }
  }
  double open = -1.0, closed = -1.0;
  d.ccdf_both(100.0, open, closed);
  EXPECT_EQ(open, 0.0);
  EXPECT_EQ(closed, d.atom_mass());

  // The base-class default, at and beside a deterministic epoch's atom.
  const lrd::dist::DeterministicEpoch det(1.5);
  for (const double t : {1.0, 1.5, 2.0}) {
    det.ccdf_both(t, open, closed);
    EXPECT_EQ(open, det.ccdf_open(t)) << "t " << t;
    EXPECT_EQ(closed, det.ccdf_closed(t)) << "t " << t;
  }

  // excess_mean's cutoff term is computed once, at construction; the
  // result equals the closed form with that term evaluated inline.
  // (The parameters come from the accessors so that the compiler cannot
  // fold the reference pow() calls at build time.)
  const double theta = d.theta(), alpha = d.alpha(), cutoff = d.cutoff();
  for (const double u : {0.0, 0.5, 18.0, 99.0}) {
    const double head = std::pow((u + theta) / theta, 1.0 - alpha);
    const double tail = std::pow((cutoff + theta) / theta, 1.0 - alpha);
    EXPECT_EQ(d.excess_mean(u), theta / (alpha - 1.0) * (head - tail)) << "u " << u;
    EXPECT_EQ(untruncated.excess_mean(u), theta / (alpha - 1.0) * (head - 0.0)) << "u " << u;
  }
}

TEST(TruncatedPareto, NoAtomWhenUntruncated) {
  TruncatedPareto d(2.0, 1.4, kInf);
  EXPECT_DOUBLE_EQ(d.atom_mass(), 0.0);
  EXPECT_GT(d.ccdf_open(1e9), 0.0);
}

class TruncatedParetoParams
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(TruncatedParetoParams, MeanMatchesEq25) {
  const auto [theta, alpha, cutoff] = GetParam();
  TruncatedPareto d(theta, alpha, cutoff);
  // Eq. 25: E[T] = theta/(alpha-1) [1 - (T_c/theta + 1)^{1-alpha}].
  const double tail = std::isinf(cutoff) ? 0.0 : std::pow(cutoff / theta + 1.0, 1.0 - alpha);
  EXPECT_NEAR(d.mean(), theta / (alpha - 1.0) * (1.0 - tail), 1e-12 * d.mean());
}

TEST_P(TruncatedParetoParams, MeanMatchesNumericIntegral) {
  const auto [theta, alpha, cutoff] = GetParam();
  TruncatedPareto d(theta, alpha, cutoff);
  const double numeric =
      std::isinf(cutoff)
          ? integrate_tail([&](double t) { return d.ccdf_open(t); }, 0.0, theta)
          : simpson([&](double t) { return d.ccdf_open(t); }, 0.0, cutoff, 200000);
  EXPECT_NEAR(d.mean(), numeric, 1e-5 * d.mean());
}

TEST_P(TruncatedParetoParams, ExcessMeanMatchesNumericIntegral) {
  const auto [theta, alpha, cutoff] = GetParam();
  TruncatedPareto d(theta, alpha, cutoff);
  for (double u : {0.0, theta / 2.0, theta, 5.0 * theta}) {
    if (!std::isinf(cutoff) && u >= cutoff) continue;
    const double numeric =
        std::isinf(cutoff)
            ? integrate_tail([&](double t) { return d.ccdf_open(t); }, u, theta)
            : simpson([&](double t) { return d.ccdf_open(t); }, u, cutoff, 200000);
    EXPECT_NEAR(d.excess_mean(u), numeric, 1e-5 * (numeric + 1e-12)) << "u = " << u;
  }
}

TEST_P(TruncatedParetoParams, ExcessMeanIsDecreasingAndVanishesAtCutoff) {
  const auto [theta, alpha, cutoff] = GetParam();
  TruncatedPareto d(theta, alpha, cutoff);
  double prev = d.excess_mean(0.0);
  const double hi = std::isinf(cutoff) ? 50.0 * theta : cutoff;
  for (double u = hi / 20.0; u <= hi; u += hi / 20.0) {
    const double cur = d.excess_mean(u);
    EXPECT_LE(cur, prev + 1e-15);
    prev = cur;
  }
  if (!std::isinf(cutoff)) {
    EXPECT_DOUBLE_EQ(d.excess_mean(cutoff), 0.0);
    EXPECT_DOUBLE_EQ(d.excess_mean(2.0 * cutoff), 0.0);
  }
}

TEST_P(TruncatedParetoParams, SampleMomentsMatch) {
  const auto [theta, alpha, cutoff] = GetParam();
  TruncatedPareto d(theta, alpha, cutoff);
  lrd::numerics::Rng rng(1234);
  const int n = 400000;
  double s = 0.0;
  int at_cutoff = 0;
  for (int i = 0; i < n; ++i) {
    const double t = d.sample(rng);
    ASSERT_GT(t, 0.0);
    ASSERT_LE(t, cutoff);
    s += t;
    if (t == cutoff) {
      ++at_cutoff;
    }
  }
  // Heavy tails converge slowly; allow a generous but meaningful tolerance.
  EXPECT_NEAR(s / n, d.mean(), 0.12 * d.mean());
  if (!std::isinf(cutoff)) {
    EXPECT_NEAR(at_cutoff / static_cast<double>(n), d.atom_mass(), 0.01);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TruncatedParetoParams,
    ::testing::Values(std::make_tuple(1.0, 1.5, 10.0), std::make_tuple(0.02, 1.2, 5.0),
                      std::make_tuple(0.0272, 1.34, 100.0), std::make_tuple(2.0, 1.9, 50.0),
                      std::make_tuple(1.0, 1.5, kInf), std::make_tuple(0.1, 1.8, kInf),
                      std::make_tuple(5.0, 2.5, 100.0), std::make_tuple(1.0, 2.0, 30.0)));

TEST(TruncatedPareto, VarianceFiniteCutoffMatchesNumeric) {
  TruncatedPareto d(1.0, 1.5, 20.0);
  // E[T^2] = 2 int t ccdf(t) dt.
  const double second =
      2.0 * simpson([&](double t) { return t * d.ccdf_open(t); }, 0.0, 20.0, 200000);
  EXPECT_NEAR(d.variance(), second - d.mean() * d.mean(), 1e-4);
}

TEST(TruncatedPareto, VarianceAlphaTwoBranch) {
  TruncatedPareto d(1.0, 2.0, 20.0);
  const double second =
      2.0 * simpson([&](double t) { return t * d.ccdf_open(t); }, 0.0, 20.0, 200000);
  EXPECT_NEAR(d.variance(), second - d.mean() * d.mean(), 1e-4);
}

TEST(TruncatedPareto, VarianceInfiniteForHeavyUntruncated) {
  TruncatedPareto d(1.0, 1.5, kInf);
  EXPECT_TRUE(std::isinf(d.variance()));
}

TEST(TruncatedPareto, VarianceFiniteForLightUntruncated) {
  TruncatedPareto d(1.0, 3.0, kInf);
  // Pareto-like: Var = 2 theta^2 / ((a-1)(a-2)) - mean^2.
  const double second = 2.0 / (2.0 * 1.0);
  EXPECT_NEAR(d.variance(), second - 0.25, 1e-12);
}

TEST(TruncatedPareto, HurstMappings) {
  EXPECT_NEAR(TruncatedPareto::alpha_from_hurst(0.9), 1.2, 1e-15);
  EXPECT_NEAR(TruncatedPareto::alpha_from_hurst(0.55), 1.9, 1e-15);
  EXPECT_NEAR(TruncatedPareto::hurst_from_alpha(1.2), 0.9, 1e-15);
  EXPECT_THROW(TruncatedPareto::alpha_from_hurst(0.5), std::invalid_argument);
  EXPECT_THROW(TruncatedPareto::alpha_from_hurst(1.0), std::invalid_argument);
  EXPECT_THROW(TruncatedPareto::hurst_from_alpha(2.5), std::invalid_argument);
  // Round trip.
  for (double h : {0.55, 0.7, 0.83, 0.9, 0.95})
    EXPECT_NEAR(TruncatedPareto::hurst_from_alpha(TruncatedPareto::alpha_from_hurst(h)), h, 1e-14);
}

TEST(TruncatedPareto, ThetaCalibrationRecoversMeanEpoch) {
  // theta = mean_epoch (alpha - 1) makes the T_c = inf mean equal mean_epoch.
  const double mean_epoch = 0.080;
  const double alpha = 1.34;
  const double theta = TruncatedPareto::theta_from_mean_epoch(mean_epoch, alpha);
  TruncatedPareto d(theta, alpha, kInf);
  EXPECT_NEAR(d.mean(), mean_epoch, 1e-12);
}

TEST(TruncatedPareto, FromHurstFactory) {
  auto d = TruncatedPareto::from_hurst(0.83, 0.080, 50.0);
  EXPECT_NEAR(d.alpha(), 1.34, 1e-12);
  EXPECT_NEAR(d.hurst(), 0.83, 1e-12);
  EXPECT_DOUBLE_EQ(d.cutoff(), 50.0);
  EXPECT_NEAR(d.theta(), 0.080 * 0.34, 1e-12);
}

TEST(TruncatedPareto, ResidualCcdfMatchesEq7) {
  // Eq. 7: Pr{tau_res >= t} = ((t+th)^{1-a} - (Tc+th)^{1-a}) / (th^{1-a} - (Tc+th)^{1-a}).
  TruncatedPareto d(2.0, 1.3, 40.0);
  const double a = 1.3, th = 2.0, tc = 40.0;
  for (double t : {0.0, 0.5, 5.0, 20.0, 39.0}) {
    const double expected = (std::pow(t + th, 1.0 - a) - std::pow(tc + th, 1.0 - a)) /
                            (std::pow(th, 1.0 - a) - std::pow(tc + th, 1.0 - a));
    EXPECT_NEAR(d.residual_ccdf(t), expected, 1e-12) << "t = " << t;
  }
  EXPECT_DOUBLE_EQ(d.residual_ccdf(40.0), 0.0);
  EXPECT_DOUBLE_EQ(d.residual_ccdf(100.0), 0.0);
  EXPECT_DOUBLE_EQ(d.residual_ccdf(0.0), 1.0);
}

TEST(TruncatedPareto, ResidualDecaysAsPowerLawWhenUntruncated) {
  // phi(t) ~ t^{-(alpha-1)} for T_c = inf: doubling t scales the residual
  // ccdf by 2^{1-alpha} asymptotically.
  TruncatedPareto d(1.0, 1.4, kInf);
  const double r1 = d.residual_ccdf(1000.0);
  const double r2 = d.residual_ccdf(2000.0);
  EXPECT_NEAR(r2 / r1, std::pow(2.0, -0.4), 1e-3);
}

}  // namespace
