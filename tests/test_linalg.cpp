#include <gtest/gtest.h>

#include "numerics/linalg.hpp"
#include "numerics/random.hpp"

namespace {

using namespace lrd::numerics;

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
  EXPECT_THROW(Matrix(0, 3), std::invalid_argument);
}

TEST(Matrix, IdentityAndMultiply) {
  Matrix i(2, 2);
  i(0, 0) = 1.0;
  i(1, 1) = 1.0;
  auto u = i.multiply({-1.5, 2.5});
  EXPECT_DOUBLE_EQ(u[0], -1.5);
  EXPECT_DOUBLE_EQ(u[1], 2.5);
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = 4.0;
  auto v = a.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(v[0], 3.0);
  EXPECT_DOUBLE_EQ(v[1], 7.0);
  EXPECT_THROW(a.multiply({1.0}), std::invalid_argument);
}

TEST(SolveLinear, KnownSystem) {
  // x + 2y = 5; 3x - y = 1  ->  x = 1, y = 2.
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 3.0;
  a(1, 1) = -1.0;
  auto x = solve_linear_system(a, {5.0, 1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, RandomRoundTrip) {
  Rng rng(7);
  const std::size_t n = 12;
  Matrix a(n, n);
  std::vector<double> x_true(n);
  for (std::size_t r = 0; r < n; ++r) {
    x_true[r] = rng.uniform(-2.0, 2.0);
    for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
    a(r, r) += 4.0;  // diagonally dominant => well conditioned
  }
  auto b = a.multiply(x_true);
  auto x = solve_linear_system(a, b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(SolveLinear, SingularThrows) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(solve_linear_system(a, {1.0, 2.0}), std::domain_error);
}

TEST(SolveLinear, NeedsPivoting) {
  // Zero pivot in the naive order; partial pivoting must handle it.
  Matrix a(2, 2);
  a(0, 0) = 0.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 0.0;
  auto x = solve_linear_system(a, {3.0, 4.0});
  EXPECT_NEAR(x[0], 4.0, 1e-14);
  EXPECT_NEAR(x[1], 3.0, 1e-14);
}

}  // namespace
