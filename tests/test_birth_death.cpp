// Tests for the general birth-death fluid queue, including a Maglaris
// minisource video model.
#include <gtest/gtest.h>

#include <cmath>

#include "queueing/markov_fluid.hpp"

namespace {

using namespace lrd::queueing;

BirthDeathFluidSpec video_like_spec() {
  // A 4-state "activity level" chain with non-uniform rates and
  // transition intensities (not expressible as homogeneous on/off).
  BirthDeathFluidSpec spec;
  spec.rates = {1.0, 4.0, 6.5, 12.0};
  spec.up = {3.0, 2.0, 0.8, 0.0};
  spec.down = {0.0, 1.0, 2.5, 4.0};
  spec.service = 6.0;  // mean rate ~5.0 -> utilization ~0.83
  return spec;
}

TEST(BirthDeath, FromOnOffMatchesDirectConstruction) {
  OnOffFluidSpec onoff;
  onoff.sources = 3;
  onoff.rate_on = 2.0;
  onoff.lambda_on = 1.5;
  onoff.lambda_off = 2.5;
  onoff.service = 3.1;
  const auto bd = BirthDeathFluidSpec::from_onoff(onoff);
  ASSERT_EQ(bd.states(), 4u);
  EXPECT_DOUBLE_EQ(bd.rates[2], 4.0);
  EXPECT_DOUBLE_EQ(bd.up[0], 4.5);   // 3 lambda_on
  EXPECT_DOUBLE_EQ(bd.down[3], 7.5); // 3 lambda_off
  EXPECT_NEAR(bd.mean_rate(), onoff.mean_rate(), 1e-12);
  // Both constructions give the same loss.
  const double a = MarkovFluidQueue(onoff).finite_buffer(1.5).loss_rate;
  const double b = MarkovFluidQueue(bd).finite_buffer(1.5).loss_rate;
  EXPECT_NEAR(a, b, 1e-12);
}

TEST(BirthDeath, StationaryIsDetailedBalance) {
  const auto spec = video_like_spec();
  const auto pi = spec.stationary();
  ASSERT_EQ(pi.size(), 4u);
  double total = 0.0;
  for (double p : pi) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  for (std::size_t i = 0; i + 1 < 4; ++i)
    EXPECT_NEAR(pi[i] * spec.up[i], pi[i + 1] * spec.down[i + 1], 1e-12) << i;
}

TEST(BirthDeath, Validation) {
  auto spec = video_like_spec();
  spec.up[1] = 0.0;  // reducible
  EXPECT_THROW(MarkovFluidQueue{spec}, std::invalid_argument);
  spec = video_like_spec();
  spec.rates[1] = 6.0;  // zero drift (== service)
  EXPECT_THROW(MarkovFluidQueue{spec}, std::invalid_argument);
  spec = video_like_spec();
  spec.up.pop_back();
  EXPECT_THROW(MarkovFluidQueue{spec}, std::invalid_argument);
  spec = video_like_spec();
  spec.rates = {1.0};
  spec.up = {0.0};
  spec.down = {0.0};
  EXPECT_THROW(MarkovFluidQueue{spec}, std::invalid_argument);
}

TEST(BirthDeath, SpectrumStructureForGeneralChain) {
  MarkovFluidQueue q(video_like_spec());
  const auto& z = q.eigenvalues();
  ASSERT_EQ(z.size(), 4u);
  int zeros = 0, negatives = 0;
  for (double v : z) {
    if (v == 0.0) ++zeros;
    if (v < 0.0) ++negatives;
  }
  EXPECT_EQ(zeros, 1);
  // Up-drift states: rates > 6 -> {6.5, 12} -> two negative eigenvalues.
  EXPECT_EQ(negatives, 2);
}

class BirthDeathFinite : public ::testing::TestWithParam<double> {};

TEST_P(BirthDeathFinite, LossAndMeanQueueMatchSimulation) {
  const double buffer = GetParam();
  const auto spec = video_like_spec();
  MarkovFluidQueue q(spec);
  const auto exact = q.finite_buffer(buffer);
  const auto sim = simulate_markov_fluid(spec, buffer, 2000000, 77);
  EXPECT_NEAR(exact.loss_rate, sim.loss_rate, 0.08 * exact.loss_rate + 1e-6) << buffer;
  EXPECT_NEAR(exact.mean_queue, sim.mean_queue, 0.08 * exact.mean_queue + 1e-3) << buffer;
}

INSTANTIATE_TEST_SUITE_P(Buffers, BirthDeathFinite, ::testing::Values(0.2, 1.0, 5.0));

TEST(Maglaris, CalibratedVideoModelSolves) {
  // 20 on/off minisources fitted to video-like numbers: mean 9.5 Mb/s,
  // std 2.4 Mb/s, ACF decay lambda_on + lambda_off = 3.9 /s (Maglaris
  // et al. report a ~ 3.9 for their video conference data). Service
  // chosen so no activity level sits within ~1% of c: the spectral
  // method (like AMS) is ill-conditioned near zero drifts.
  OnOffFluidSpec spec;
  spec.sources = 20;
  spec.rate_on = 1.0813;
  spec.lambda_on = 1.7132;
  spec.lambda_off = 2.1868;
  spec.service = 12.2;
  MarkovFluidQueue q(spec);
  const auto r = q.finite_buffer(0.1 * spec.service);
  EXPECT_GT(r.loss_rate, 0.0);
  EXPECT_LT(r.loss_rate, 0.2);
  // Loss decays fast with buffer for this SRD model.
  EXPECT_LT(q.finite_buffer(2.0 * spec.service).loss_rate, r.loss_rate / 10.0);
}

}  // namespace
