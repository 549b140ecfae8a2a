// Tests for the Anick-Mitra-Sondhi spectral fluid-queue solver, including
// the exact cross-validation against the paper's discretized solver: a
// renewal source with exponential epochs and a {0, r} marginal is
// path-identical to a single-source on/off CTMC.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dist/simple_epochs.hpp"
#include "queueing/markov_fluid.hpp"
#include "queueing/solver.hpp"

namespace {

using namespace lrd;
using queueing::MarkovFluidQueue;
using queueing::OnOffFluidSpec;

OnOffFluidSpec basic_spec() {
  OnOffFluidSpec spec;
  spec.sources = 4;
  spec.rate_on = 3.0;
  spec.lambda_on = 2.0;
  spec.lambda_off = 3.0;  // p_on = 0.4, mean rate 4.8
  // 6.2 (not 6.0) so no state has drift exactly zero (i * 3 != c).
  spec.service = 6.2;     // utilization ~0.774
  return spec;
}

TEST(MarkovFluid, Validation) {
  OnOffFluidSpec bad = basic_spec();
  bad.sources = 0;
  EXPECT_THROW(MarkovFluidQueue{bad}, std::invalid_argument);
  bad = basic_spec();
  bad.rate_on = 0.0;
  EXPECT_THROW(MarkovFluidQueue{bad}, std::invalid_argument);
  bad = basic_spec();
  bad.service = 6.2;
  bad.rate_on = 3.1;  // state 2: 2 * 3.1 == 6.2 == c -> zero drift
  EXPECT_THROW(MarkovFluidQueue{bad}, std::invalid_argument);
}

TEST(MarkovFluid, SpecAccessors) {
  const auto spec = basic_spec();
  EXPECT_NEAR(spec.p_on(), 0.4, 1e-15);
  EXPECT_NEAR(spec.mean_rate(), 4.8, 1e-12);
  EXPECT_NEAR(spec.utilization(), 4.8 / 6.2, 1e-12);
}

TEST(MarkovFluid, SpectrumStructure) {
  MarkovFluidQueue q(basic_spec());
  const auto& z = q.eigenvalues();
  ASSERT_EQ(z.size(), 5u);
  // Sorted, exactly one zero eigenvalue.
  int zeros = 0, negatives = 0, positives = 0;
  for (std::size_t k = 0; k < z.size(); ++k) {
    if (k > 0) {
      EXPECT_GE(z[k], z[k - 1]);
    }
    if (z[k] == 0.0) {
      ++zeros;
    } else if (z[k] < 0.0) {
      ++negatives;
    } else {
      ++positives;
    }
  }
  EXPECT_EQ(zeros, 1);
  // #negative eigenvalues == #up-drift states (i * 3 > 6.2 -> i in {3, 4}).
  EXPECT_EQ(negatives, 2);
  EXPECT_EQ(positives, 2);
}

TEST(MarkovFluid, StateProbabilitiesAreBinomial) {
  MarkovFluidQueue q(basic_spec());
  const auto& p = q.state_probabilities();
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(p[0], std::pow(0.6, 4), 1e-12);
  EXPECT_NEAR(p[4], std::pow(0.4, 4), 1e-12);
}

TEST(MarkovFluid, SingleSourceClosedFormDecayRate) {
  // N = 1: the nonzero eigenvalue is lambda_on / c - lambda_off / (r - c).
  OnOffFluidSpec s;
  s.sources = 1;
  s.rate_on = 5.0;
  s.lambda_on = 1.0;
  s.lambda_off = 4.0;  // p_on = 0.2, mean 1.0
  s.service = 2.0;     // utilization 0.5
  MarkovFluidQueue q(s);
  const double expected = s.lambda_on / s.service - s.lambda_off / (s.rate_on - s.service);
  ASSERT_EQ(q.eigenvalues().size(), 2u);
  EXPECT_NEAR(q.eigenvalues()[0], expected, 1e-9);
  EXPECT_DOUBLE_EQ(q.eigenvalues()[1], 0.0);
}

class MarkovFluidFinite : public ::testing::TestWithParam<double> {};

TEST_P(MarkovFluidFinite, LossMatchesSimulation) {
  const double buffer = GetParam();
  const auto spec = basic_spec();
  MarkovFluidQueue q(spec);
  const auto exact = q.finite_buffer(buffer);
  // 16M transitions: at B = 8 the loss (~1.5e-4) comes from rare
  // all-sources-on excursions and needs a long run to resolve.
  const auto sim = queueing::simulate_markov_fluid(spec, buffer, 16000000, 1234);
  EXPECT_NEAR(exact.loss_rate, sim.loss_rate, 0.08 * exact.loss_rate + 1e-6) << buffer;
  EXPECT_NEAR(exact.mean_queue, sim.mean_queue, 0.08 * exact.mean_queue + 1e-3) << buffer;
}

INSTANTIATE_TEST_SUITE_P(Buffers, MarkovFluidFinite, ::testing::Values(0.25, 1.0, 4.0, 8.0));

TEST(MarkovFluid, FiniteBufferStructure) {
  MarkovFluidQueue q(basic_spec());
  const auto r = q.finite_buffer(2.0);
  EXPECT_GT(r.loss_rate, 0.0);
  EXPECT_LT(r.loss_rate, 1.0);
  EXPECT_GT(r.mean_queue, 0.0);
  EXPECT_LT(r.mean_queue, 2.0);
  // Atoms live on the right side of the drift split.
  const auto& p = q.state_probabilities();
  for (std::size_t i = 0; i < r.full_atoms.size(); ++i) {
    EXPECT_GE(r.full_atoms[i], 0.0);
    EXPECT_LE(r.full_atoms[i], p[i] + 1e-9);
    EXPECT_GE(r.empty_atoms[i], 0.0);
    EXPECT_LE(r.empty_atoms[i], p[i] + 1e-9);
  }
  // Up-drift states cannot have empty atoms and vice versa.
  EXPECT_DOUBLE_EQ(r.empty_atoms[4], 0.0);
  EXPECT_DOUBLE_EQ(r.full_atoms[0], 0.0);
}

TEST(MarkovFluid, LossDecreasesWithBuffer) {
  MarkovFluidQueue q(basic_spec());
  double prev = 1.0;
  for (double b : {0.1, 0.5, 2.0, 8.0, 32.0}) {
    const double l = q.finite_buffer(b).loss_rate;
    EXPECT_LT(l, prev) << b;
    prev = l;
  }
  EXPECT_LT(prev, 1e-3);  // large buffers kill the loss for SRD input
}

TEST(MarkovFluid, OverloadedFiniteBufferLosesExcess) {
  OnOffFluidSpec s = basic_spec();
  s.service = 4.0;  // utilization 1.2: loss >= 1 - 1/1.2
  MarkovFluidQueue q(s);
  const auto r = q.finite_buffer(1.0);
  EXPECT_GT(r.loss_rate, 1.0 - 1.0 / 1.2 - 1e-9);
}

// ---- The exact cross-validation with the paper's solver -------------------

TEST(MarkovFluid, RenewalSolverAgreesExactlyForSingleOnOffSource) {
  // Renewal model: exponential epochs of rate mu, rate drawn i.i.d. from
  // {0, r} with Pr{r} = p. Self-loops do not change the law of the fluid
  // path, so this IS the CTMC on/off source with lambda_on = mu p,
  // lambda_off = mu (1 - p).
  const double mu = 8.0, p = 0.35, r = 9.0, c = 5.0, B = 3.0;

  OnOffFluidSpec spec;
  spec.sources = 1;
  spec.rate_on = r;
  spec.lambda_on = mu * p;
  spec.lambda_off = mu * (1.0 - p);
  spec.service = c;
  const double exact = MarkovFluidQueue(spec).finite_buffer(B).loss_rate;

  dist::Marginal marginal({0.0, r}, {1.0 - p, p});
  auto epochs = std::make_shared<const dist::ExponentialEpoch>(mu);
  queueing::FluidQueueSolver solver(marginal, epochs, c, B);
  queueing::SolverConfig cfg;
  cfg.target_relative_gap = 0.02;
  cfg.max_bins = 1 << 13;
  const auto bracket = solver.solve(cfg);

  ASSERT_TRUE(bracket.converged);
  EXPECT_LE(bracket.loss.lower, exact * (1.0 + 1e-6));
  EXPECT_GE(bracket.loss.upper, exact * (1.0 - 1e-6));
}

}  // namespace
