// Tests for FluidModel, the correlation horizon, sweep drivers and the
// calibrated synthetic trace models.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>

#include "analysis/histogram.hpp"
#include "analysis/hurst.hpp"
#include "core/correlation_horizon.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/traces.hpp"
#include "numerics/special_functions.hpp"
#include "traffic/synthetic_traces.hpp"

namespace {

using namespace lrd;
using dist::Marginal;

constexpr double kInf = std::numeric_limits<double>::infinity();

Marginal test_marginal() {
  return Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
}

TEST(FluidModel, WiringMatchesPaperCalibration) {
  core::ModelConfig cfg;
  cfg.hurst = 0.83;
  cfg.mean_epoch = 0.080;
  cfg.cutoff = 10.0;
  cfg.utilization = 0.8;
  cfg.normalized_buffer = 1.0;
  core::FluidModel model(test_marginal(), cfg);

  EXPECT_NEAR(model.alpha(), 3.0 - 2.0 * 0.83, 1e-14);
  EXPECT_NEAR(model.theta(), 0.080 * (model.alpha() - 1.0), 1e-14);
  EXPECT_NEAR(model.service_rate(), 10.0 / 0.8, 1e-12);
  EXPECT_NEAR(model.buffer(), model.service_rate() * 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(model.epochs()->cutoff(), 10.0);
}

TEST(FluidModel, Validation) {
  core::ModelConfig cfg;
  cfg.normalized_buffer = 0.0;
  EXPECT_THROW(core::FluidModel(test_marginal(), cfg), std::invalid_argument);
  cfg = core::ModelConfig{};
  cfg.hurst = 1.0;
  EXPECT_THROW(core::FluidModel(test_marginal(), cfg), std::invalid_argument);
  cfg = core::ModelConfig{};
  cfg.utilization = 1.5;
  EXPECT_THROW(core::FluidModel(test_marginal(), cfg), std::invalid_argument);
}

TEST(FluidModel, SourceAndSolverShareParameters) {
  core::ModelConfig cfg;
  cfg.hurst = 0.9;
  cfg.mean_epoch = 0.02;
  cfg.utilization = 0.5;
  cfg.normalized_buffer = 0.5;
  core::FluidModel model(test_marginal(), cfg);
  auto solver = model.solver();
  EXPECT_DOUBLE_EQ(solver.service_rate(), 20.0);
  EXPECT_DOUBLE_EQ(solver.buffer(), 10.0);
  EXPECT_NEAR(solver.utilization(), 0.5, 1e-14);
}

// ---- Correlation horizon --------------------------------------------------

TEST(CorrelationHorizon, MatchesEq26ByHand) {
  // T_CH = B mu / (2 sqrt(2) sigma_T sigma_l erfinv(p)).
  const double B = 4.0, mu = 0.05, sT = 0.1, sL = 3.0, p = 0.05;
  const double expected = B * mu / (2.0 * std::sqrt(2.0) * sT * sL * numerics::erf_inv(p));
  EXPECT_NEAR(core::correlation_horizon(B, mu, sT, sL, p), expected, 1e-12);
}

TEST(CorrelationHorizon, LinearInBuffer) {
  const double t1 = core::correlation_horizon(1.0, 0.05, 0.1, 3.0);
  const double t2 = core::correlation_horizon(2.0, 0.05, 0.1, 3.0);
  const double t8 = core::correlation_horizon(8.0, 0.05, 0.1, 3.0);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-12);
  EXPECT_NEAR(t8 / t1, 8.0, 1e-12);
}

TEST(CorrelationHorizon, SmallerNoResetProbabilityExtendsHorizon) {
  const double strict = core::correlation_horizon(1.0, 0.05, 0.1, 3.0, 0.01);
  const double loose = core::correlation_horizon(1.0, 0.05, 0.1, 3.0, 0.2);
  EXPECT_GT(strict, loose);
}

TEST(CorrelationHorizon, FromModelComponents) {
  Marginal m = test_marginal();
  dist::TruncatedPareto d(0.02, 1.4, 5.0);  // finite variance (truncated)
  const double ch = core::correlation_horizon(m, d, 2.0);
  EXPECT_GT(ch, 0.0);
  EXPECT_NEAR(ch,
              core::correlation_horizon(2.0, d.mean(), std::sqrt(d.variance()), m.stddev()),
              1e-12);
}

TEST(CorrelationHorizon, Validation) {
  EXPECT_THROW(core::correlation_horizon(0.0, 1.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(core::correlation_horizon(1.0, 0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(core::correlation_horizon(1.0, 1.0, kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(core::correlation_horizon(1.0, 1.0, 1.0, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(core::correlation_horizon(1.0, 1.0, 1.0, 1.0, 1.0), std::invalid_argument);
}

TEST(EmpiricalCorrelationHorizon, FindsPlateauOnset) {
  const std::vector<double> cutoffs{0.1, 0.3, 1.0, 3.0, 10.0, 30.0};
  const std::vector<double> losses{1e-6, 1e-4, 5e-3, 9.5e-3, 9.9e-3, 1e-2};
  const double ch = core::empirical_correlation_horizon(cutoffs, losses, 0.10);
  EXPECT_DOUBLE_EQ(ch, 3.0);  // first loss >= 0.9 * plateau
}

TEST(EmpiricalCorrelationHorizon, NeverPlateausReturnsLast) {
  const std::vector<double> cutoffs{1.0, 2.0, 4.0};
  const std::vector<double> losses{0.1, 0.4, 1.0};
  EXPECT_DOUBLE_EQ(core::empirical_correlation_horizon(cutoffs, losses, 0.05), 4.0);
}

TEST(EmpiricalCorrelationHorizon, AllZeroLossIsTrivial) {
  EXPECT_DOUBLE_EQ(core::empirical_correlation_horizon({1.0, 2.0}, {0.0, 0.0}), 1.0);
}

TEST(EmpiricalCorrelationHorizon, Validation) {
  EXPECT_THROW(core::empirical_correlation_horizon({1.0}, {0.1}), std::invalid_argument);
  EXPECT_THROW(core::empirical_correlation_horizon({2.0, 1.0}, {0.1, 0.2}),
               std::invalid_argument);
  EXPECT_THROW(core::empirical_correlation_horizon({1.0, 2.0}, {0.1, 0.2}, 0.0),
               std::invalid_argument);
}

// ---- Sweep drivers ----------------------------------------------------------

core::ModelSweepConfig fast_sweep() {
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.83;
  cfg.mean_epoch = 0.05;
  cfg.utilization = 0.8;
  cfg.solver.target_relative_gap = 0.2;
  cfg.solver.max_bins = 1 << 11;
  return cfg;
}

TEST(Sweeps, LossVsBufferAndCutoffMonotone) {
  auto t = core::loss_vs_buffer_and_cutoff(test_marginal(), fast_sweep(), {0.05, 0.2, 0.8},
                                           {0.1, 1.0, 10.0});
  ASSERT_EQ(t.rows.size(), 3u);
  ASSERT_EQ(t.cols.size(), 3u);
  // Loss decreases in buffer (down a column) and increases in cutoff
  // (across a row).
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 1; r < 3; ++r) EXPECT_LE(t.at(r, c), t.at(r - 1, c) * 1.05 + 1e-12);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 1; c < 3; ++c) EXPECT_GE(t.at(r, c), t.at(r, c - 1) * 0.95 - 1e-12);
}

TEST(Sweeps, LossVsCutoffSaturates) {
  const std::vector<double> cutoffs{0.1, 1.0, 10.0, 100.0};
  auto losses = core::loss_vs_cutoff(test_marginal(), fast_sweep(), 0.25, cutoffs);
  ASSERT_EQ(losses.size(), 4u);
  for (std::size_t i = 1; i < losses.size(); ++i) EXPECT_GE(losses[i], losses[i - 1] * 0.9);
  // A correlation horizon exists: the step from 10 -> 100 is much smaller
  // than the step from 0.1 -> 1 (relative).
  const double early_gain = losses[1] / std::max(losses[0], 1e-300);
  const double late_gain = losses[3] / std::max(losses[2], 1e-300);
  EXPECT_GT(early_gain, late_gain);
}

TEST(Sweeps, ScalingDominatesLoss) {
  auto t = core::loss_vs_buffer_and_scaling(test_marginal(), fast_sweep(), {0.25}, {0.5, 1.0, 1.5});
  // Narrower marginal (a = 0.5) must lose far less than wider (a = 1.5).
  EXPECT_LT(t.at(0, 0), t.at(0, 2));
  EXPECT_LT(t.at(0, 0) * 5.0, t.at(0, 2));
}

TEST(Sweeps, SuperpositionReducesLoss) {
  auto t = core::loss_vs_hurst_and_superposition(test_marginal(), fast_sweep(), 0.25, {0.83},
                                                 {1, 4, 8});
  EXPECT_GT(t.at(0, 0), t.at(0, 1));
  EXPECT_GE(t.at(0, 1), t.at(0, 2) * 0.95 - 1e-15);
}

TEST(Sweeps, HurstMattersLessThanScaling) {
  // The paper's headline comparison (Figs. 10/12): across the H range the
  // loss moves much less than across the scaling range.
  auto t = core::loss_vs_hurst_and_scaling(test_marginal(), fast_sweep(), 0.25, {0.6, 0.9},
                                           {0.5, 1.5});
  const double hurst_ratio = t.at(1, 1) / std::max(t.at(0, 1), 1e-300);
  const double scale_ratio = t.at(1, 1) / std::max(t.at(1, 0), 1e-300);
  EXPECT_GT(scale_ratio, hurst_ratio);
}

TEST(SweepTable, PrintFormats) {
  core::SweepTable t;
  t.title = "demo";
  t.row_label = "b";
  t.col_label = "tc";
  t.rows = {0.5, kInf};
  t.cols = {1.0};
  t.values = {{1e-3}, {2e-3}};
  std::ostringstream human, csv;
  t.print(human);
  t.print_csv(csv);
  EXPECT_NE(human.str().find("demo"), std::string::npos);
  EXPECT_NE(human.str().find("1.000e-03"), std::string::npos);
  EXPECT_NE(human.str().find("inf"), std::string::npos);
  EXPECT_NE(csv.str().find("b\\tc,1"), std::string::npos);
  EXPECT_NE(csv.str().find("0.002"), std::string::npos);
}

TEST(ShuffleSweep, LossGrowsWithCutoffBlock) {
  auto trace = traffic::mtv_trace().head(1 << 15);
  auto t = core::shuffle_loss_vs_buffer_and_cutoff(trace, 0.8, {0.1, 0.5}, {0.1, 10.0, kInf});
  // Larger cutoff (longer preserved correlation) => more loss, and the
  // unshuffled column dominates the heavily shuffled one.
  for (std::size_t r = 0; r < 2; ++r) EXPECT_GE(t.at(r, 2), t.at(r, 0) * 0.9 - 1e-12);
  // Bigger buffer cannot increase loss.
  for (std::size_t c = 0; c < 3; ++c) EXPECT_LE(t.at(1, c), t.at(0, c) + 1e-12);
}

// ---- Synthetic traces --------------------------------------------------------

TEST(SyntheticTraces, MtvMatchesReportedStatistics) {
  auto trace = traffic::mtv_trace();
  EXPECT_EQ(trace.size(), 107892u);
  EXPECT_NEAR(trace.bin_seconds(), 1.0 / 29.97, 1e-12);
  EXPECT_NEAR(trace.mean(), 9.5222, 0.6);  // LRD sample-mean wander
  const double cov = std::sqrt(trace.variance()) / trace.mean();
  EXPECT_NEAR(cov, 0.25, 0.05);
  const double h = analysis::hurst_wavelet(trace).hurst;
  EXPECT_NEAR(h, 0.83, 0.08);
}

TEST(SyntheticTraces, BellcoreMatchesSpec) {
  auto trace = traffic::bellcore_trace();
  EXPECT_EQ(trace.size(), std::size_t{1} << 18);
  EXPECT_DOUBLE_EQ(trace.bin_seconds(), 0.01);
  const double h = analysis::hurst_wavelet(trace).hurst;
  EXPECT_NEAR(h, 0.90, 0.08);
  const double cov = std::sqrt(trace.variance()) / trace.mean();
  EXPECT_GT(cov, 0.8);  // distinctly burstier than the video trace
}

TEST(SyntheticTraces, Deterministic) {
  auto a = traffic::mtv_trace();
  auto b = traffic::mtv_trace();
  for (std::size_t i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(SyntheticTraces, Validation) {
  traffic::SyntheticTraceSpec bad;
  bad.mean_rate = 0.0;
  EXPECT_THROW(traffic::generate_synthetic_trace(bad), std::invalid_argument);
  bad = traffic::SyntheticTraceSpec{};
  bad.cov = 0.0;
  EXPECT_THROW(traffic::generate_synthetic_trace(bad), std::invalid_argument);
}

TEST(TraceModels, CalibratedBundles) {
  auto mtv = core::mtv_model();
  EXPECT_STREQ(mtv.name, "MTV");
  EXPECT_DOUBLE_EQ(mtv.hurst, 0.83);
  EXPECT_DOUBLE_EQ(mtv.utilization, 0.8);
  EXPECT_LE(mtv.marginal.size(), 50u);
  EXPECT_NEAR(mtv.marginal.mean(), mtv.trace.mean(), 1e-6 * mtv.trace.mean());

  auto bc = core::bellcore_model();
  EXPECT_STREQ(bc.name, "Bellcore");
  EXPECT_DOUBLE_EQ(bc.hurst, 0.90);
  EXPECT_DOUBLE_EQ(bc.utilization, 0.4);
  // The Bellcore marginal is wider (relative to its mean) than the MTV one.
  EXPECT_GT(bc.marginal.stddev() / bc.marginal.mean(),
            mtv.marginal.stddev() / mtv.marginal.mean());
}

TEST(TraceModels, MeanEpochRoughlyMatchesTraceRunLength) {
  // The paper reads the mean epoch off the trace's same-histogram-bin run
  // length; our canonical value must at least be the right order.
  auto mtv = core::mtv_model();
  const double measured = analysis::mean_epoch_seconds(mtv.trace, 50);
  EXPECT_GT(measured, mtv.mean_epoch / 4.0);
  EXPECT_LT(measured, mtv.mean_epoch * 4.0);
}

}  // namespace
