// Tests for the uniform grid and its floor/ceiling quantizers (Eq. 15).
// The solver's mass-health scan is part of its fold step: it is checked
// through the guardrail tests in test_robustness.cpp and, bit for bit,
// by SolverFoldEngine.StepMatchesPerChainPassesBitForBit.
#include <gtest/gtest.h>

#include "numerics/grid.hpp"

namespace {

using namespace lrd::numerics;

TEST(Grid, BasicGeometry) {
  Grid g(10.0, 4);
  EXPECT_DOUBLE_EQ(g.step(), 2.5);
  EXPECT_EQ(g.points(), 5u);
  EXPECT_DOUBLE_EQ(g.value(0), 0.0);
  EXPECT_DOUBLE_EQ(g.value(4), 10.0);
}

TEST(Grid, InvalidArguments) {
  EXPECT_THROW(Grid(0.0, 4), std::invalid_argument);
  EXPECT_THROW(Grid(-1.0, 4), std::invalid_argument);
  EXPECT_THROW(Grid(1.0, 0), std::invalid_argument);
}

TEST(Grid, FloorAndCeilBracketTheValue) {
  Grid g(1.0, 100);
  for (double x : {0.0, 0.001, 0.0149, 0.5, 0.995, 1.0}) {
    EXPECT_LE(g.floor_quantize(x), x + 1e-15);
    EXPECT_GE(g.ceil_quantize(x), x - 1e-15);
    EXPECT_LE(g.ceil_quantize(x) - g.floor_quantize(x), g.step() + 1e-15);
  }
}

TEST(Grid, QuantizationClampsOutOfRange) {
  Grid g(5.0, 10);
  EXPECT_EQ(g.floor_index(-3.0), 0u);
  EXPECT_EQ(g.ceil_index(-3.0), 0u);
  EXPECT_EQ(g.floor_index(7.0), 10u);
  EXPECT_EQ(g.ceil_index(7.0), 10u);
}

TEST(Grid, ExactGridPointsAreFixedPoints) {
  Grid g(8.0, 16);
  for (std::size_t j = 0; j <= 16; ++j) {
    EXPECT_EQ(g.floor_index(g.value(j)), j);
    EXPECT_EQ(g.ceil_index(g.value(j)), j);
  }
}

TEST(Grid, RefinementIsNested) {
  // Every coarse grid point must exist in the refined grid (property (v)
  // of Proposition II.1 relies on nesting).
  Grid coarse(3.0, 6);
  Grid fine = coarse.refined(4);
  EXPECT_EQ(fine.bins(), 24u);
  for (std::size_t j = 0; j <= 6; ++j) {
    const double v = coarse.value(j);
    EXPECT_DOUBLE_EQ(fine.floor_quantize(v), v);
    EXPECT_DOUBLE_EQ(fine.ceil_quantize(v), v);
  }
}

TEST(Grid, FinerFloorIsWeaklyLarger) {
  Grid coarse(1.0, 10);
  Grid fine(1.0, 20);
  for (double x = 0.0; x <= 1.0; x += 0.013) {
    EXPECT_LE(coarse.floor_quantize(x), fine.floor_quantize(x) + 1e-15);
    EXPECT_GE(coarse.ceil_quantize(x), fine.ceil_quantize(x) - 1e-15);
  }
}

}  // namespace
