// Tests for the modulated fluid source.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "analysis/acf.hpp"
#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "numerics/random.hpp"
#include "traffic/fluid_source.hpp"

namespace {

using namespace lrd;
using dist::Marginal;

TEST(FluidSource, NullEpochsThrows) {
  EXPECT_THROW(traffic::FluidSource(Marginal::constant(1.0), nullptr), std::invalid_argument);
}

TEST(FluidSource, AutocovarianceMatchesEq8) {
  // phi(t) = sigma^2 * Eq. 7 for truncated Pareto epochs.
  Marginal m({1.0, 5.0}, {0.5, 0.5});  // sigma^2 = 4
  const double theta = 2.0, alpha = 1.3, tc = 40.0;
  auto tp = std::make_shared<const dist::TruncatedPareto>(theta, alpha, tc);
  traffic::FluidSource src(m, tp);
  EXPECT_DOUBLE_EQ(src.autocovariance(0.0), 4.0);
  for (double t : {0.5, 5.0, 20.0}) {
    const double p = (std::pow(t + theta, 1.0 - alpha) - std::pow(tc + theta, 1.0 - alpha)) /
                     (std::pow(theta, 1.0 - alpha) - std::pow(tc + theta, 1.0 - alpha));
    EXPECT_NEAR(src.autocovariance(t), 4.0 * p, 1e-12) << "t = " << t;
  }
  EXPECT_DOUBLE_EQ(src.autocovariance(40.0), 0.0);  // dead beyond the cutoff
  EXPECT_DOUBLE_EQ(src.autocovariance(100.0), 0.0);
  EXPECT_DOUBLE_EQ(src.autocorrelation(0.0), 1.0);
}

TEST(FluidSource, ZeroVarianceMarginalHasZeroCovariance) {
  auto tp = std::make_shared<const dist::TruncatedPareto>(1.0, 1.5, 10.0);
  traffic::FluidSource src(Marginal::constant(3.0), tp);
  EXPECT_DOUBLE_EQ(src.autocovariance(1.0), 0.0);
  EXPECT_DOUBLE_EQ(src.autocorrelation(1.0), 0.0);
}

TEST(FluidSource, SampleEpochsHaveRightMarginals) {
  Marginal m({1.0, 2.0, 4.0}, {0.25, 0.5, 0.25});
  auto exp_epochs = std::make_shared<const dist::ExponentialEpoch>(2.0);
  traffic::FluidSource src(m, exp_epochs);
  numerics::Rng rng(21);
  auto epochs = src.sample_epochs(200000, rng);
  ASSERT_EQ(epochs.size(), 200000u);
  double dur = 0.0, rate_sum = 0.0;
  for (const auto& e : epochs) {
    dur += e.duration;
    rate_sum += e.rate;
  }
  EXPECT_NEAR(dur / 200000.0, 0.5, 0.01);
  EXPECT_NEAR(rate_sum / 200000.0, m.mean(), 0.02);
}

TEST(FluidSource, SampledTraceMeanMatchesMarginal) {
  Marginal m({2.0, 8.0}, {0.5, 0.5});
  auto tp = std::make_shared<const dist::TruncatedPareto>(0.05, 1.4, 20.0);
  traffic::FluidSource src(m, tp);
  numerics::Rng rng(23);
  auto trace = src.sample_trace(100000, 0.01, rng);
  EXPECT_EQ(trace.size(), 100000u);
  EXPECT_NEAR(trace.mean(), m.mean(), 0.35);  // LRD: slow convergence
  EXPECT_GE(trace.min(), 2.0 - 1e-12);
  EXPECT_LE(trace.max(), 8.0 + 1e-12);
}

TEST(FluidSource, EmpiricalAcfTracksClosedForm) {
  Marginal m({1.0, 9.0}, {0.5, 0.5});
  // Short epochs relative to the bin so the sampled ACF is meaningful.
  auto tp = std::make_shared<const dist::TruncatedPareto>(0.2, 1.5, 50.0);
  traffic::FluidSource src(m, tp);
  numerics::Rng rng(29);
  const double delta = 0.1;
  auto trace = src.sample_trace(1 << 19, delta, rng);
  auto acf = analysis::autocorrelation(trace, 50);
  // Compare at a few multiples of the bin; binning smears lag 0-1, so use
  // moderately large lags where the continuous ACF is smooth.
  for (std::size_t k : {5u, 10u, 20u}) {
    const double expected = src.autocorrelation(static_cast<double>(k) * delta);
    EXPECT_NEAR(acf[k], expected, 0.08) << "lag " << k;
  }
}

TEST(FluidSource, TraceValidation) {
  auto tp = std::make_shared<const dist::TruncatedPareto>(1.0, 1.5, 10.0);
  traffic::FluidSource src(Marginal::constant(1.0), tp);
  numerics::Rng rng(1);
  EXPECT_THROW(src.sample_trace(0, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(src.sample_trace(10, 0.0, rng), std::invalid_argument);
}

}  // namespace
