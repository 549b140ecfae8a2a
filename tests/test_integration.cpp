// Cross-module integration tests: the paper's end-to-end claims at small
// scale (the bench/ harness reproduces them at figure scale).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "analysis/histogram.hpp"
#include "core/correlation_horizon.hpp"
#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/traces.hpp"
#include "dist/hyperexp_fit.hpp"
#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "numerics/random.hpp"
#include "queueing/solver.hpp"
#include "queueing/trace_queue_sim.hpp"
#include "traffic/fluid_source.hpp"
#include "traffic/shuffle.hpp"

namespace {

using namespace lrd;

constexpr double kInf = std::numeric_limits<double>::infinity();

queueing::SolverConfig fast_solver() {
  queueing::SolverConfig cfg;
  cfg.target_relative_gap = 0.2;
  cfg.max_bins = 1 << 11;
  return cfg;
}

TEST(Integration, TracePipelineProducesSaneLoss) {
  // Trace -> 50-bin marginal -> model -> loss, as in Section III.
  auto mtv = core::mtv_model();
  core::ModelConfig mc;
  mc.hurst = mtv.hurst;
  mc.mean_epoch = mtv.mean_epoch;
  mc.cutoff = 10.0;
  mc.utilization = mtv.utilization;
  mc.normalized_buffer = 0.1;
  core::FluidModel model(mtv.marginal, mc);
  auto r = model.solve(fast_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.loss_estimate(), 1e-10);
  EXPECT_LT(r.loss_estimate(), 0.5);
}

TEST(Integration, ModelTracksShuffledTraceSimulation) {
  // Fig. 4 vs Fig. 7: model loss and shuffled-trace loss agree within an
  // order of magnitude for the MTV-like trace across cutoffs.
  auto mtv = core::mtv_model();
  const double b = 0.1;  // 100 ms buffer
  numerics::Rng rng(404);
  for (double tc : {0.5, 5.0}) {
    core::ModelConfig mc;
    mc.hurst = mtv.hurst;
    mc.mean_epoch = mtv.mean_epoch;
    mc.cutoff = tc;
    mc.utilization = mtv.utilization;
    mc.normalized_buffer = b;
    const double model_loss = core::FluidModel(mtv.marginal, mc).solve(fast_solver()).loss_estimate();

    auto shuffled = traffic::external_shuffle(
        mtv.trace, traffic::block_length_for_cutoff(mtv.trace, tc), rng);
    const double sim_loss =
        queueing::simulate_trace_queue_normalized(shuffled, mtv.utilization, b).loss_rate;

    ASSERT_GT(model_loss, 0.0);
    ASSERT_GT(sim_loss, 0.0);
    const double ratio = model_loss / sim_loss;
    EXPECT_GT(ratio, 0.1) << "tc = " << tc;
    EXPECT_LT(ratio, 10.0) << "tc = " << tc;
  }
}

TEST(Integration, CorrelationHorizonExistsAndScalesWithBuffer) {
  // Loss-vs-cutoff curves plateau, and the plateau onset (empirical CH)
  // grows with the buffer size.
  auto marginal = dist::Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.83;
  cfg.mean_epoch = 0.05;
  cfg.utilization = 0.8;
  cfg.solver = fast_solver();

  const std::vector<double> cutoffs{0.05, 0.2, 1.0, 5.0, 25.0, 125.0};
  const auto small = core::loss_vs_cutoff(marginal, cfg, 0.1, cutoffs);
  const auto large = core::loss_vs_cutoff(marginal, cfg, 1.0, cutoffs);

  const double ch_small = core::empirical_correlation_horizon(cutoffs, small, 0.2);
  const double ch_large = core::empirical_correlation_horizon(cutoffs, large, 0.2);
  EXPECT_LT(ch_small, cutoffs.back());  // a plateau exists
  EXPECT_GE(ch_large, ch_small);        // bigger buffer -> longer horizon
}

TEST(Integration, Eq26HorizonSeparatesRelevantCorrelation) {
  // Cutoffs beyond the Eq. 26 horizon leave the loss unchanged (within
  // bracket tolerance); cutoffs far below it change the loss a lot.
  auto marginal = dist::Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  const double util = 0.8;
  const double c = marginal.service_rate_for_utilization(util);
  const double B = 0.2 * c;

  // Moments of the truncated epoch law at a long reference cutoff.
  dist::TruncatedPareto ref(0.015, 1.34, 100.0);
  const double ch = core::correlation_horizon(B, ref.mean(), std::sqrt(ref.variance()),
                                              marginal.stddev(), 0.05);
  ASSERT_GT(ch, 0.0);

  auto loss_at = [&](double tc) {
    auto d = std::make_shared<const dist::TruncatedPareto>(0.015, 1.34, tc);
    return queueing::FluidQueueSolver(marginal, d, c, B).solve(fast_solver()).loss_estimate();
  };
  // Eq. 26 is a rough CLT sketch (the paper validates only its linear-in-B
  // scaling), so test the qualitative content: the relative loss gain per
  // cutoff octave far beyond the horizon is much smaller than below it.
  const double gain_below = loss_at(ch) / std::max(loss_at(ch / 8.0), 1e-300);
  const double gain_beyond = loss_at(64.0 * ch) / std::max(loss_at(8.0 * ch), 1e-300);
  EXPECT_GT(gain_below, gain_beyond);
  EXPECT_LT(gain_beyond, 3.0);
}

TEST(Integration, MarginalDominatesHurst) {
  // Fig. 9 claim: two marginals with identical correlation parameters
  // produce orders-of-magnitude different loss.
  auto mtv = core::mtv_model();
  auto bc = core::bellcore_model();

  core::ModelConfig mc;
  mc.hurst = 0.9;
  mc.mean_epoch = 0.02 / (dist::TruncatedPareto::alpha_from_hurst(0.9) - 1.0);  // theta = 20 ms
  mc.cutoff = 10.0;
  mc.utilization = 2.0 / 3.0;
  mc.normalized_buffer = 1.0;

  const double mtv_loss = core::FluidModel(mtv.marginal, mc).solve(fast_solver()).loss_estimate();
  const double bc_loss = core::FluidModel(bc.marginal, mc).solve(fast_solver()).loss_estimate();
  // The burstier Bellcore marginal must lose dramatically more.
  EXPECT_GT(bc_loss, mtv_loss * 10.0);
}

TEST(Integration, MarkovModelMatchedUpToHorizonPredictsSameLoss) {
  // Section IV: "we may choose any model ... as long as it captures the
  // correlation structure up to CH". A hyperexponential (finite Markov)
  // epoch law fitted to the truncated Pareto over the relevant range must
  // produce a loss estimate close to the Pareto model's.
  auto marginal = dist::Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  const double c = 12.5, B = 2.5;  // util 0.8, b = 0.2 s
  const double tc = 20.0;
  auto pareto_epochs = std::make_shared<const dist::TruncatedPareto>(0.015, 1.34, tc);
  auto hyper_epochs = dist::fit_hyperexponential(*pareto_epochs, tc, 12);

  queueing::SolverConfig cfg;
  cfg.target_relative_gap = 0.1;
  cfg.max_bins = 1 << 12;
  const auto lp = queueing::FluidQueueSolver(marginal, pareto_epochs, c, B).solve(cfg);
  const auto lh = queueing::FluidQueueSolver(marginal, hyper_epochs, c, B).solve(cfg);

  ASSERT_GT(lp.loss_estimate(), 0.0);
  const double ratio = lh.loss_estimate() / lp.loss_estimate();
  EXPECT_GT(ratio, 1.0 / 3.0);
  EXPECT_LT(ratio, 3.0);
}

TEST(Integration, BufferInefficiencyUnderLrd) {
  // "Reducing loss by buffering is hard for traffic with correlation over
  // many time scales": with a long cutoff, growing the buffer 8x gains
  // less than the same growth under a short cutoff.
  auto marginal = dist::Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.83;
  cfg.mean_epoch = 0.05;
  cfg.utilization = 0.8;
  cfg.solver = fast_solver();

  auto t = core::loss_vs_buffer_and_cutoff(marginal, cfg, {0.1, 0.8}, {0.2, 50.0});
  const double gain_srd = t.at(0, 0) / std::max(t.at(1, 0), 1e-300);
  const double gain_lrd = t.at(0, 1) / std::max(t.at(1, 1), 1e-300);
  EXPECT_GT(gain_srd, gain_lrd);
}

TEST(Integration, MixtureEpochSeparatesShortAndLongTermStructure) {
  // The future-work VBR model: exponential short-term + Pareto long-term.
  // Its source autocovariance interpolates between both components.
  std::vector<dist::MixtureEpoch::Component> comps;
  comps.push_back({0.6, std::make_shared<const dist::ExponentialEpoch>(20.0)});
  comps.push_back({0.4, std::make_shared<const dist::TruncatedPareto>(0.01, 1.3, 100.0)});
  auto mix = std::make_shared<const dist::MixtureEpoch>(std::move(comps));

  auto marginal = dist::Marginal({2.0, 18.0}, {0.5, 0.5});
  traffic::FluidSource src(marginal, mix);
  // Long-lag correlation survives (Pareto part)...
  EXPECT_GT(src.autocorrelation(5.0), 0.01);
  // ...and the queue solver accepts the mixture directly.
  queueing::FluidQueueSolver solver(marginal, mix, 12.5, 1.0);
  auto r = solver.solve(fast_solver());
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.loss_estimate(), 0.0);
}

}  // namespace
