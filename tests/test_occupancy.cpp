// Tests for the secondary occupancy metrics derived from solver results.
#include <gtest/gtest.h>

#include <memory>

#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "queueing/occupancy.hpp"
#include "queueing/solver.hpp"

namespace {

using namespace lrd;
using dist::Marginal;

queueing::SolverResult solved_result() {
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  auto d = std::make_shared<const dist::TruncatedPareto>(0.015, 1.3, 10.0);
  queueing::FluidQueueSolver s(m, d, 12.5, 6.25);
  queueing::SolverConfig cfg;
  cfg.target_relative_gap = 0.05;
  cfg.max_bins = 1 << 12;
  return s.solve(cfg);
}

TEST(Occupancy, QuantilesAreOrderedAndWithinBuffer) {
  const auto r = solved_result();
  for (double p : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const auto q = queueing::occupancy_quantile(r, 6.25, p);
    EXPECT_LE(q.lower, q.upper + 1e-12) << "p = " << p;
    EXPECT_GE(q.lower, 0.0);
    EXPECT_LE(q.upper, 6.25 + 1e-12);
  }
  EXPECT_THROW(queueing::occupancy_quantile(r, 6.25, 0.0), std::invalid_argument);
}

TEST(Occupancy, QuantilesIncreaseInP) {
  const auto r = solved_result();
  double prev = -1.0;
  for (double p : {0.1, 0.3, 0.6, 0.9, 0.999}) {
    const auto q = queueing::occupancy_quantile(r, 6.25, p);
    EXPECT_GE(q.mid(), prev - 1e-12);
    prev = q.mid();
  }
}

TEST(Occupancy, DelayQuantileScalesByServiceRate) {
  const auto r = solved_result();
  const auto q = queueing::occupancy_quantile(r, 6.25, 0.9);
  const auto d = queueing::delay_quantile(r, 6.25, 12.5, 0.9);
  EXPECT_NEAR(d.lower, q.lower / 12.5, 1e-15);
  EXPECT_NEAR(d.upper, q.upper / 12.5, 1e-15);
  EXPECT_THROW(queueing::delay_quantile(r, 6.25, 0.0, 0.9), std::invalid_argument);
}

TEST(Occupancy, TailCurveIsMonotoneAndBracketing) {
  const auto r = solved_result();
  const auto tail = queueing::occupancy_tail(r, 6.25);
  ASSERT_EQ(tail.lower.size(), r.occupancy_lower.size());
  EXPECT_NEAR(tail.lower[0], 1.0, 1e-9);
  EXPECT_NEAR(tail.upper[0], 1.0, 1e-9);
  for (std::size_t j = 1; j < tail.lower.size(); ++j) {
    EXPECT_LE(tail.lower[j], tail.lower[j - 1] + 1e-12);
    EXPECT_LE(tail.upper[j], tail.upper[j - 1] + 1e-12);
    EXPECT_LE(tail.lower[j], tail.upper[j] + 1e-9);
  }
}

TEST(Occupancy, RejectsEmptyResult) {
  queueing::SolverResult empty;
  EXPECT_THROW(queueing::occupancy_quantile(empty, 1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(queueing::occupancy_tail(empty, 1.0), std::invalid_argument);
}

}  // namespace
