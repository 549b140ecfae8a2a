#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "numerics/random.hpp"

namespace {

using namespace lrd::numerics;

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double mn = 1.0, mx = 0.0, sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
    sum2 += u * u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.005);
  EXPECT_NEAR(sum2 / n - 0.25, 1.0 / 12.0, 0.005);
  EXPECT_LT(mn, 0.001);
  EXPECT_GT(mx, 0.999);
}

TEST(Rng, UniformOpenNeverZero) {
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) ASSERT_GT(rng.uniform_open(), 0.0);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(7, 0);
  const int n = 140000;
  for (int i = 0; i < n; ++i) {
    const auto v = rng.below(7);
    ASSERT_LT(v, 7u);
    ++counts[v];
  }
  for (int c : counts) EXPECT_NEAR(c, n / 7, 5 * std::sqrt(n / 7.0));
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  const int n = 400000;
  double s = 0.0, s2 = 0.0, s3 = 0.0, s4 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x; s2 += x * x; s3 += x * x * x; s4 += x * x * x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.01);
  EXPECT_NEAR(s2 / n, 1.0, 0.02);
  EXPECT_NEAR(s3 / n, 0.0, 0.05);
  EXPECT_NEAR(s4 / n, 3.0, 0.1);
}

TEST(Rng, NormalAffine) {
  Rng rng(17);
  const int n = 200000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(5.0, 2.0);
    s += x; s2 += x * x;
  }
  const double mean = s / n;
  EXPECT_NEAR(mean, 5.0, 0.03);
  EXPECT_NEAR(s2 / n - mean * mean, 4.0, 0.08);
}

TEST(Rng, ExponentialMoments) {
  Rng rng(19);
  const int n = 300000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.exponential(2.0);
    ASSERT_GE(x, 0.0);
    s += x; s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.5, 0.01);
  EXPECT_NEAR(s2 / n, 0.5, 0.02);  // E[X^2] = 2 / rate^2
}

TEST(Rng, LognormalMean) {
  Rng rng(29);
  const int n = 400000;
  double s = 0.0;
  for (int i = 0; i < n; ++i) s += rng.lognormal(0.0, 0.5);
  EXPECT_NEAR(s / n, std::exp(0.125), 0.02);  // E = exp(mu + sigma^2/2)
}

TEST(AliasTable, ValidatesInput) {
  EXPECT_THROW(AliasTable({}), std::invalid_argument);
  EXPECT_THROW(AliasTable({-1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(AliasTable({0.0, 0.0}), std::invalid_argument);
}

TEST(AliasTable, MatchesTargetFrequencies) {
  const std::vector<double> w{1.0, 2.0, 3.0, 4.0};
  AliasTable table(w);
  Rng rng(31);
  std::vector<int> counts(4, 0);
  const int n = 400000;
  for (int i = 0; i < n; ++i) ++counts[table.sample(rng)];
  for (std::size_t k = 0; k < 4; ++k)
    EXPECT_NEAR(counts[k] / static_cast<double>(n), w[k] / 10.0, 0.005) << "state " << k;
}

TEST(AliasTable, SingletonAlwaysZero) {
  AliasTable table({5.0});
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  AliasTable table({1.0, 0.0, 1.0});
  Rng rng(41);
  for (int i = 0; i < 50000; ++i) EXPECT_NE(table.sample(rng), 1u);
}

TEST(RandomPermutation, IsAPermutation) {
  Rng rng(43);
  auto perm = random_permutation(100, rng);
  auto sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(RandomPermutation, UniformFirstElement) {
  Rng rng(47);
  std::vector<int> counts(5, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[random_permutation(5, rng)[0]];
  for (int c : counts) EXPECT_NEAR(c, n / 5, 5 * std::sqrt(n / 5.0));
}

TEST(RandomPermutation, EdgeCases) {
  Rng rng(53);
  EXPECT_TRUE(random_permutation(0, rng).empty());
  auto one = random_permutation(1, rng);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

}  // namespace
