// Tests of the bounded queue solver: exact cases, Proposition II.1
// monotonicity, increment-pmf structure, agreement with Monte Carlo, the
// exactness of the fused and carried level build, and the zero-allocation
// guarantee of the batched epoch engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <numeric>
#include <string>

#include "core/model.hpp"
#include "core/traces.hpp"
#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/grid.hpp"
#include "numerics/parallel.hpp"
#include "numerics/simd.hpp"
#include "numerics/special_functions.hpp"
#include "queueing/fluid_queue_sim.hpp"
#include "queueing/solver.hpp"
#include "test_helpers.hpp"

// Counting global allocator: every operator new in this test binary
// bumps a relaxed atomic, so a test can prove a code region performs
// zero heap allocations. Forwarding to malloc/free keeps ASan/TSan
// interception intact. (Replacements must live at global scope.)
namespace {
std::atomic<std::size_t> g_alloc_count{0};

void* counted_alloc(std::size_t size) noexcept {
  if (size == 0) size = 1;
  void* p = std::malloc(size);
  if (p != nullptr) g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return p;
}
}  // namespace

// Every replacement is noinline: once GCC inlines a delete (std::free)
// next to a new (std::malloc), -Wmismatched-new-delete fires on the pair.
[[gnu::noinline]] void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
[[gnu::noinline]] void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace lrd::queueing {

// Test seam, a friend of FluidQueueSolver: its private level builder, so a
// level carried across a refinement can be compared with a fresh build.
struct LevelBuildProbe {
  using Level = FluidQueueSolver::Level;
  static Level build(const FluidQueueSolver& s, std::size_t bins, const Level* coarse) {
    return s.build_level(bins, coarse);
  }
};

}  // namespace lrd::queueing

namespace {

using namespace lrd;
using dist::Marginal;
using queueing::FluidQueueSolver;
using queueing::SolverConfig;

std::shared_ptr<const dist::TruncatedPareto> pareto(double theta, double alpha, double tc) {
  return std::make_shared<const dist::TruncatedPareto>(theta, alpha, tc);
}

TEST(Solver, ConstructionValidation) {
  Marginal m({1.0}, {1.0});
  auto d = std::make_shared<const dist::ExponentialEpoch>(1.0);
  EXPECT_THROW(FluidQueueSolver(m, nullptr, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(FluidQueueSolver(m, d, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(FluidQueueSolver(m, d, 1.0, 0.0), std::invalid_argument);
}

TEST(Solver, ConfigValidation) {
  Marginal m({1.0}, {1.0});
  auto d = std::make_shared<const dist::ExponentialEpoch>(1.0);
  FluidQueueSolver s(m, d, 2.0, 1.0);
  SolverConfig c;
  c.initial_bins = 1;
  EXPECT_THROW(s.solve(c), std::invalid_argument);
  c = SolverConfig{};
  c.max_bins = 16;
  c.initial_bins = 64;
  EXPECT_THROW(s.solve(c), std::invalid_argument);
  c = SolverConfig{};
  c.target_relative_gap = 0.0;
  EXPECT_THROW(s.solve(c), std::invalid_argument);
}

TEST(Solver, ExactTwoStateRandomWalk) {
  // T = 1 deterministic, rates {0, 3} w.p. {2/3, 1/3}, c = 2, B = 1.
  // The occupancy chain lives on {0, 1} with Pr{Q = 1} = 1/3, and
  // l = E[W_l] / (mean * E[T]) = (1/3)(1/3) / 1 = 1/9 exactly.
  Marginal m({0.0, 3.0}, {2.0 / 3.0, 1.0 / 3.0});
  auto d = std::make_shared<const dist::DeterministicEpoch>(1.0);
  FluidQueueSolver s(m, d, 2.0, 1.0);
  auto r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.loss.lower, 1.0 / 9.0, 1e-9);
  EXPECT_NEAR(r.loss.upper, 1.0 / 9.0, 1e-9);
  EXPECT_NEAR(r.mean_queue_lower, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(r.mean_queue_upper, 1.0 / 3.0, 1e-9);
}

TEST(Solver, DeterministicOverloadLosesExcessFraction) {
  // A constant rate above c loses exactly (rate - c)/rate once the buffer
  // is full, for any buffer size and epoch law.
  Marginal m = Marginal::constant(4.0);
  auto d = std::make_shared<const dist::ExponentialEpoch>(1.0);
  FluidQueueSolver s(m, d, 3.0, 2.0);
  auto r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.loss_estimate(), 0.25, 1e-6);
}

TEST(Solver, NoLossWhenAllRatesBelowService) {
  Marginal m({1.0, 2.0}, {0.5, 0.5});
  auto d = pareto(0.1, 1.5, 100.0);
  FluidQueueSolver s(m, d, 2.5, 1.0);
  auto r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.zero_loss);
  EXPECT_DOUBLE_EQ(r.loss_estimate(), 0.0);
}

TEST(Solver, RateEqualToServiceIsHandled) {
  Marginal m({1.0, 2.5, 4.0}, {0.4, 0.2, 0.4});
  auto d = std::make_shared<const dist::ExponentialEpoch>(2.0);
  FluidQueueSolver s(m, d, 2.5, 1.0);
  auto r = s.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.loss_estimate(), 0.0);
  EXPECT_LT(r.loss_estimate(), 1.0);
}

TEST(Solver, UtilizationAccessor) {
  Marginal m({2.0, 6.0}, {0.5, 0.5});
  FluidQueueSolver s(m, pareto(0.1, 1.5, 10.0), 5.0, 1.0);
  EXPECT_DOUBLE_EQ(s.utilization(), 0.8);
}

// ---- Increment pmf structure --------------------------------------------

class IncrementPmf : public ::testing::TestWithParam<std::size_t> {
 protected:
  FluidQueueSolver make_solver() const {
    Marginal m({1.0, 5.0, 11.0}, {0.3, 0.4, 0.3});
    return FluidQueueSolver(m, pareto(0.05, 1.3, 8.0), 6.0, 4.0);
  }
};

TEST_P(IncrementPmf, BothSumToOne) {
  const std::size_t bins = GetParam();
  auto s = make_solver();
  auto wl = s.increment_pmf_lower(bins);
  auto wh = s.increment_pmf_upper(bins);
  ASSERT_EQ(wl.size(), 2 * bins + 1);
  ASSERT_EQ(wh.size(), 2 * bins + 1);
  EXPECT_NEAR(std::accumulate(wl.begin(), wl.end(), 0.0), 1.0, 1e-12);
  EXPECT_NEAR(std::accumulate(wh.begin(), wh.end(), 0.0), 1.0, 1e-12);
  for (double p : wl) EXPECT_GE(p, 0.0);
  for (double p : wh) EXPECT_GE(p, 0.0);
}

TEST_P(IncrementPmf, UpperStochasticallyDominatesLower) {
  // w_H quantizes W upward, w_L downward: for every threshold k the upper
  // tail mass of w_H from k must be >= that of w_L.
  const std::size_t bins = GetParam();
  auto s = make_solver();
  auto wl = s.increment_pmf_lower(bins);
  auto wh = s.increment_pmf_upper(bins);
  double tail_l = 0.0, tail_h = 0.0;
  for (std::size_t k = wl.size(); k-- > 0;) {
    tail_l += wl[k];
    tail_h += wh[k];
    EXPECT_GE(tail_h, tail_l - 1e-12) << "threshold " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Bins, IncrementPmf, ::testing::Values(4, 16, 100, 512));

// ---- Proposition II.1 ----------------------------------------------------

class PropositionII1 : public ::testing::Test {
 protected:
  FluidQueueSolver make_solver() const {
    Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
    return FluidQueueSolver(m, pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  }
};

TEST_F(PropositionII1, LowerBoundIncreasesInN) {
  auto s = make_solver();
  double prev = -1.0;
  for (std::size_t n : {2u, 5u, 10u, 30u, 80u}) {
    const auto snap = s.iterate_fixed(100, n);
    EXPECT_GE(snap.loss.lower, prev - 1e-13) << "n = " << n;
    prev = snap.loss.lower;
  }
}

TEST_F(PropositionII1, UpperBoundDecreasesInN) {
  auto s = make_solver();
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t n : {2u, 5u, 10u, 30u, 80u}) {
    const auto snap = s.iterate_fixed(100, n);
    EXPECT_LE(snap.loss.upper, prev + 1e-13) << "n = " << n;
    prev = snap.loss.upper;
  }
}

TEST_F(PropositionII1, LowerBoundIncreasesInM) {
  auto s = make_solver();
  double prev = -1.0;
  for (std::size_t m : {25u, 50u, 100u, 200u, 400u}) {
    const auto snap = s.iterate_fixed(m, 60);
    EXPECT_GE(snap.loss.lower, prev - 1e-12) << "M = " << m;
    prev = snap.loss.lower;
  }
}

TEST_F(PropositionII1, UpperBoundDecreasesInM) {
  auto s = make_solver();
  double prev = std::numeric_limits<double>::infinity();
  for (std::size_t m : {25u, 50u, 100u, 200u, 400u}) {
    const auto snap = s.iterate_fixed(m, 60);
    EXPECT_LE(snap.loss.upper, prev + 1e-12) << "M = " << m;
    prev = snap.loss.upper;
  }
}

TEST_F(PropositionII1, BoundsBracketAtEveryStage) {
  auto s = make_solver();
  for (std::size_t n : {1u, 5u, 30u})
    for (std::size_t m : {50u, 100u}) {
      const auto snap = s.iterate_fixed(m, n);
      EXPECT_LE(snap.loss.lower, snap.loss.upper) << "n=" << n << " M=" << m;
    }
}

TEST_F(PropositionII1, OccupancyPmfsAreProper) {
  auto s = make_solver();
  const auto snap = s.iterate_fixed(100, 30);
  ASSERT_EQ(snap.q_lower.size(), 101u);
  ASSERT_EQ(snap.q_upper.size(), 101u);
  EXPECT_NEAR(std::accumulate(snap.q_lower.begin(), snap.q_lower.end(), 0.0), 1.0, 1e-9);
  EXPECT_NEAR(std::accumulate(snap.q_upper.begin(), snap.q_upper.end(), 0.0), 1.0, 1e-9);
  // Q_L starts empty / Q_H full: the lower occupancy must be
  // stochastically below the upper one at every stage.
  double cdf_l = 0.0, cdf_h = 0.0;
  for (std::size_t j = 0; j < snap.q_lower.size(); ++j) {
    cdf_l += snap.q_lower[j];
    cdf_h += snap.q_upper[j];
    EXPECT_GE(cdf_l, cdf_h - 1e-9) << "bin " << j;
  }
}

// ---- Agreement with Monte Carlo ------------------------------------------

struct AgreementCase {
  double utilization;
  double cutoff;
  double buffer_seconds;
};

class SolverVsSimulation : public ::testing::TestWithParam<AgreementCase> {};

TEST_P(SolverVsSimulation, SimulationFallsInOrNearBracket) {
  const auto& p = GetParam();
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  const double c = m.mean() / p.utilization;
  const double B = p.buffer_seconds * c;
  auto d = pareto(0.015, 1.3, p.cutoff);

  FluidQueueSolver s(m, d, c, B);
  SolverConfig cfg;
  cfg.target_relative_gap = 0.05;
  cfg.max_bins = 1 << 13;
  auto r = s.solve(cfg);
  ASSERT_TRUE(r.converged);

  queueing::FluidSimConfig sim_cfg;
  sim_cfg.epochs = 1 << 22;
  sim_cfg.seed = 1234;
  auto sim = queueing::simulate_fluid_queue(m, *d, c, B, sim_cfg);

  const double slack = 4.0 * sim.loss_rate_stderr + 0.02 * r.loss.upper;
  EXPECT_GE(sim.loss_rate, r.loss.lower - slack);
  EXPECT_LE(sim.loss_rate, r.loss.upper + slack);
}

INSTANTIATE_TEST_SUITE_P(Regimes, SolverVsSimulation,
                         ::testing::Values(AgreementCase{0.8, 10.0, 0.5},
                                           AgreementCase{0.8, 1.0, 0.2},
                                           AgreementCase{0.9, 5.0, 0.3},
                                           AgreementCase{0.6, 20.0, 0.1},
                                           AgreementCase{0.8, 0.2, 0.05}));

// ---- Adaptive refinement and conventions ---------------------------------

TEST(Solver, RefinementTightensTheBracket) {
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  FluidQueueSolver s(m, pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  SolverConfig loose;
  loose.initial_bins = 32;
  loose.max_bins = 32;
  loose.target_relative_gap = 1e-4;  // unreachable at M = 32
  loose.max_iterations_per_level = 3000;
  loose.max_total_iterations = 3000;
  auto coarse = s.solve(loose);

  SolverConfig fine = loose;
  fine.max_bins = 2048;
  fine.target_relative_gap = 0.05;
  fine.max_total_iterations = 1000000;
  fine.max_iterations_per_level = 100000;
  auto refined = s.solve(fine);
  EXPECT_TRUE(refined.converged);
  EXPECT_GT(refined.final_bins, coarse.final_bins);
  EXPECT_LT(refined.loss.relative_gap(), coarse.loss.relative_gap());
  // Refined bracket sits inside the coarse one (monotonicity in M).
  EXPECT_GE(refined.loss.lower, coarse.loss.lower - 1e-12);
  EXPECT_LE(refined.loss.upper, coarse.loss.upper + 1e-12);
}

TEST(Solver, ZeroLossConvention) {
  // Tiny utilization and a huge buffer: upper bound dives below 1e-10 and
  // the solver reports zero by convention.
  Marginal m({1.0, 3.0}, {0.9, 0.1});
  FluidQueueSolver s(m, pareto(0.1, 1.5, 0.5), 12.0, 100.0);
  auto r = s.solve();
  EXPECT_TRUE(r.zero_loss);
  EXPECT_DOUBLE_EQ(r.loss_estimate(), 0.0);
}

TEST(Solver, MeanQueueBoundsAreOrdered) {
  Marginal m({2.0, 6.0, 10.0, 14.0}, {0.25, 0.25, 0.25, 0.25});
  FluidQueueSolver s(m, pareto(0.02, 1.4, 5.0), 10.0, 3.0);
  auto r = s.solve();
  EXPECT_LE(r.mean_queue_lower, r.mean_queue_upper + 1e-12);
  EXPECT_GE(r.mean_queue_lower, 0.0);
  EXPECT_LE(r.mean_queue_upper, 3.0 + 1e-12);
}

TEST(Solver, OverflowKernelClampsToBuffer) {
  Marginal m({0.0, 4.0}, {0.5, 0.5});
  FluidQueueSolver s(m, pareto(0.1, 1.5, 10.0), 2.0, 1.0);
  EXPECT_DOUBLE_EQ(s.overflow_kernel(1.0), s.overflow_kernel(100.0));
  EXPECT_GT(s.overflow_kernel(1.0), s.overflow_kernel(0.0));
}

TEST(Solver, LossDecreasesWithBuffer) {
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  auto d = pareto(0.015, 1.3, 2.0);
  double prev = 1.0;
  for (double b : {0.05, 0.2, 0.8, 2.0}) {
    FluidQueueSolver s(m, d, 12.5, b * 12.5);
    SolverConfig cfg;
    cfg.target_relative_gap = 0.05;
    const double l = s.solve(cfg).loss_estimate();
    EXPECT_LE(l, prev * 1.02) << "buffer " << b;
    prev = l;
  }
}

TEST(Solver, LossIncreasesWithCutoff) {
  // More correlation (longer cutoff) cannot decrease loss.
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  double prev = 0.0;
  for (double tc : {0.1, 0.5, 2.0, 10.0, 50.0}) {
    FluidQueueSolver s(m, pareto(0.015, 1.3, tc), 12.5, 6.25);
    SolverConfig cfg;
    cfg.target_relative_gap = 0.05;
    const double l = s.solve(cfg).loss_estimate();
    EXPECT_GE(l, prev * 0.98) << "cutoff " << tc;
    prev = l;
  }
}

TEST(Solver, WorksWithExponentialEpochs) {
  // The solver is model-independent (Section IV): exponential epochs give
  // a valid bracket too, cross-checked by simulation.
  Marginal m({0.0, 10.0}, {0.5, 0.5});
  auto d = std::make_shared<const dist::ExponentialEpoch>(10.0);
  FluidQueueSolver s(m, d, 6.0, 2.0);
  SolverConfig cfg;
  cfg.target_relative_gap = 0.05;
  auto r = s.solve(cfg);
  ASSERT_TRUE(r.converged);
  queueing::FluidSimConfig sim_cfg;
  sim_cfg.epochs = 1 << 22;
  auto sim = queueing::simulate_fluid_queue(m, *d, 6.0, 2.0, sim_cfg);
  EXPECT_GE(sim.loss_rate, r.loss.lower - 4.0 * sim.loss_rate_stderr);
  EXPECT_LE(sim.loss_rate, r.loss.upper + 4.0 * sim.loss_rate_stderr);
}

// Reference epoch step for one chain: exact O(M^2) direct convolution,
// then fold + clamp + renormalize. It shares no FFT, packing or SIMD code
// with DualFoldEngine, so it is an independent oracle for the engine.
void direct_fold_step(const std::vector<double>& kernel, std::vector<double>& q,
                      std::size_t bins) {
  const auto u = numerics::convolve_direct(q, kernel);
  std::vector<double> next(bins + 1, 0.0);
  numerics::CompensatedSum at_zero, at_buffer;
  for (std::size_t k = 0; k <= bins; ++k) at_zero.add(u[k]);
  for (std::size_t k = 2 * bins; k < u.size(); ++k) at_buffer.add(u[k]);
  for (std::size_t j = 1; j < bins; ++j) next[j] = u[bins + j];
  next[0] = at_zero.value();
  next[bins] = at_buffer.value();
  double total = 0.0;
  for (double& p : next) {
    if (p < 0.0) p = 0.0;
    total += p;
  }
  if (total > 0.0)
    for (double& p : next) p /= total;
  q = std::move(next);
}

// Runs the packed dual-chain step and the two per-chain direct steps
// side by side for 64 epochs and compares the pmfs.
void expect_matches_direct_baseline(std::size_t bins) {
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  FluidQueueSolver s(m, pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  const auto wl = s.increment_pmf_lower(bins);
  const auto wh = s.increment_pmf_upper(bins);

  queueing::DualFoldEngine engine(wl, wh, bins);
  std::vector<double> q_low(bins + 1, 0.0), q_high(bins + 1, 0.0);
  q_low[0] = 1.0;
  q_high[bins] = 1.0;
  std::vector<double> ref_low = q_low, ref_high = q_high;

  queueing::StepHealth low_health, high_health;
  for (std::size_t step = 0; step < 64; ++step) {
    engine.step(q_low, q_high, low_health, high_health);
    direct_fold_step(wl, ref_low, bins);
    direct_fold_step(wh, ref_high, bins);
  }
  EXPECT_TRUE(low_health.finite);
  EXPECT_TRUE(high_health.finite);
  for (std::size_t j = 0; j <= bins; ++j) {
    EXPECT_NEAR(q_low[j], ref_low[j], 1e-10) << "bins " << bins << " low bin " << j;
    EXPECT_NEAR(q_high[j], ref_high[j], 1e-10) << "bins " << bins << " high bin " << j;
  }
}

TEST(SolverFoldEngine, MatchesSequentialPerChainBaseline) {
  // The packed dual-chain step must reproduce two independent per-chain
  // direct steps, epoch by epoch. The engine's circular transform wraps
  // differently per size: 1 and 2 bins run at n = 2M, where kernel entry
  // 2M wraps onto 0 and the un-aliased interior is empty or one entry;
  // 3 and 96 run at n > 2M.
  for (const std::size_t bins : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{96}})
    expect_matches_direct_baseline(bins);
}

TEST(SolverFoldEngine, PackedLayoutMatchesSequentialBaselineAt1024) {
  // A large power-of-two level: the transform runs at n = 2M and the
  // interior is written straight into the next-state pmf. The packed
  // dual-chain step must match the per-chain direct step there too.
  expect_matches_direct_baseline(1024);
}

// The fold step as separate per-chain passes: atoms, then a health scan
// of each chain, then a clamp-and-total and a scale per chain. The engine
// fuses these into three passes over both chains; each operation and
// its order per value are the same, so the bits must be too.
struct PassHealth {
  double mass = 0.0;
  double min_entry = 0.0;
  bool finite = true;
};

PassHealth scan_mass(const std::vector<double>& q) {
  PassHealth h;
  numerics::CompensatedSum acc;
  for (double p : q) {
    if (!std::isfinite(p)) {
      h.finite = false;
      continue;
    }
    acc.add(p);
    if (p < h.min_entry) h.min_entry = p;
  }
  h.mass = acc.value();
  return h;
}

void merge_health(queueing::StepHealth& into, const PassHealth& h) {
  if (!h.finite) into.finite = false;
  into.mass_dev = std::max(into.mass_dev, std::abs(h.mass - 1.0));
  into.min_entry = std::min(into.min_entry, h.min_entry);
}

void clamp_and_renormalize(std::vector<double>& q) {
  double total = 0.0;
  for (double& p : q) {
    if (p < 0.0) p = 0.0;
    total += p;
  }
  if (total > 0.0) {
    const double inv = 1.0 / total;
    for (double& p : q) p *= inv;
  }
}

class PerChainFoldReference {
 public:
  PerChainFoldReference(const std::vector<double>& wl, const std::vector<double>& wh,
                        std::size_t bins)
      : bins_(bins),
        low_(tails(wl)),
        high_(tails(wh)),
        conv_(wl, wh, numerics::next_pow2(2 * bins)),
        ws_(conv_.make_workspace()) {}

  void step(std::vector<double>& q_low, std::vector<double>& q_high, queueing::StepHealth& hl,
            queueing::StepHealth& hh) {
    std::vector<double> next_low(bins_ + 1), next_high(bins_ + 1);
    lrd::testing::convolve_window(conv_, ws_, q_low.data(), q_high.data(), bins_ + 1, bins_ + 1,
                                  bins_ - 1, next_low.data() + 1, next_high.data() + 1);
    atoms(q_low, low_, next_low);
    atoms(q_high, high_, next_high);
    merge_health(hl, scan_mass(next_low));
    merge_health(hh, scan_mass(next_high));
    clamp_and_renormalize(next_low);
    clamp_and_renormalize(next_high);
    q_low = std::move(next_low);
    q_high = std::move(next_high);
  }

 private:
  struct Tails {
    std::vector<double> zero, full;
  };
  Tails tails(const std::vector<double>& w) const {
    Tails t{std::vector<double>(bins_ + 1), std::vector<double>(bins_ + 1)};
    numerics::CompensatedSum low, high;
    for (std::size_t j = bins_ + 1; j-- > 0;) {
      low.add(w[bins_ - j]);
      t.zero[j] = low.value();
    }
    for (std::size_t j = 0; j <= bins_; ++j) {
      high.add(w[2 * bins_ - j]);
      t.full[j] = high.value();
    }
    return t;
  }
  void atoms(const std::vector<double>& q, const Tails& t, std::vector<double>& next) const {
    numerics::CompensatedSum at_zero, at_buffer;
    for (std::size_t j = 0; j <= bins_; ++j) {
      at_zero.add(q[j] * t.zero[j]);
      at_buffer.add(q[j] * t.full[j]);
    }
    next[0] = at_zero.value();
    next[bins_] = at_buffer.value();
  }

  std::size_t bins_;
  Tails low_, high_;
  numerics::DualKernelConvolver conv_;
  numerics::DualKernelConvolver::Workspace ws_;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool same_bits(const queueing::StepHealth& a, const queueing::StepHealth& b) {
  return std::memcmp(&a.mass_dev, &b.mass_dev, sizeof(double)) == 0 &&
         std::memcmp(&a.min_entry, &b.min_entry, sizeof(double)) == 0 && a.finite == b.finite;
}

TEST(SolverFoldEngine, StepMatchesPerChainPassesBitForBit) {
  // 18 clean epochs, then a -0.0 and then a subnormal in each chain (at
  // its end with the least mass, so the chain keeps its mass), then the
  // lower chain loses its mass (no positive total, so no
  // renormalization), then entries the guardrails exist for: a negative
  // entry in each chain (min_entry and the clamp), then a NaN in one
  // chain and an Inf in the other (finiteness, non-finite totals). Health
  // accumulates across the steps, as within a check. The NaN is the one
  // Inf - Inf makes, the payload of every NaN the steps then make, so the
  // operand order of a NaN + NaN add cannot show. On every usable
  // kernel table: the reference's passes are plain loops, so a vector
  // pack or scan that moved a bit would show.
  lrd::testing::KernelGuard guard;
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  FluidQueueSolver s(m, pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  for (const numerics::simd::Isa isa : lrd::testing::usable_tables()) {
    ASSERT_TRUE(numerics::simd::set_active_kernels_for_testing(isa));
    const std::string table = numerics::simd::active_isa_name();
    for (const std::size_t bins : {1, 2, 3, 96, 128, 1024}) {
      const auto wl = s.increment_pmf_lower(bins);
      const auto wh = s.increment_pmf_upper(bins);
      queueing::DualFoldEngine engine(wl, wh, bins);
      PerChainFoldReference ref(wl, wh, bins);
      std::vector<double> q_low(bins + 1, 0.0), q_high(bins + 1, 0.0);
      q_low[0] = 1.0;
      q_high[bins] = 1.0;
      std::vector<double> r_low = q_low, r_high = q_high;
      queueing::StepHealth hl, hh, rl, rh;
      for (std::size_t step = 0; step < 30; ++step) {
        if (step == 18) {
          q_low[bins] = r_low[bins] = -0.0;
          q_high[0] = r_high[0] = -0.0;
        }
        if (step == 19) {
          q_low[bins] = r_low[bins] = 4.9e-324;
          q_high[0] = r_high[0] = 2.5e-310;
        }
        if (step == 20) {
          std::fill(q_low.begin(), q_low.end(), 0.0);
          std::fill(r_low.begin(), r_low.end(), 0.0);
        }
        if (step == 24) {
          q_low[bins / 2] = r_low[bins / 2] = -1e-7;
          q_high[bins / 2] = r_high[bins / 2] = -0.75;
        }
        if (step == 27) {
          q_low[0] = r_low[0] = lrd::testing::hardware_nan();
          q_high[bins] = r_high[bins] = std::numeric_limits<double>::infinity();
        }
        engine.step(q_low, q_high, hl, hh);
        ref.step(r_low, r_high, rl, rh);
        ASSERT_TRUE(same_bits(q_low, r_low)) << table << " bins " << bins << " step " << step;
        ASSERT_TRUE(same_bits(q_high, r_high)) << table << " bins " << bins << " step " << step;
        ASSERT_TRUE(same_bits(hl, rl)) << table << " bins " << bins << " step " << step;
        ASSERT_TRUE(same_bits(hh, rh)) << table << " bins " << bins << " step " << step;
      }
      EXPECT_FALSE(hl.finite);
      EXPECT_FALSE(hh.finite);
      EXPECT_LT(hh.min_entry, 0.0);
    }
  }
}

TEST(SolverFoldEngine, RejectsMalformedInputs) {
  const std::vector<double> w(2 * 8 + 1, 1.0 / 17.0);
  EXPECT_THROW(queueing::DualFoldEngine(w, w, 0), std::invalid_argument);
  EXPECT_THROW(queueing::DualFoldEngine(w, w, 9), std::invalid_argument);
  queueing::DualFoldEngine engine(w, w, 8);
  std::vector<double> q_ok(9, 1.0 / 9.0), q_bad(5, 0.2);
  queueing::StepHealth a, b;
  EXPECT_THROW(engine.step(q_bad, q_ok, a, b), std::invalid_argument);
  EXPECT_THROW(engine.step(q_ok, q_bad, a, b), std::invalid_argument);
}

TEST(SolverFoldEngine, BracketsAreIdenticalOnAnyThread) {
  // The reproducibility contract: a level computes the same bits on the
  // calling thread and on any executor worker, below and above 1024
  // bins. Runs under TSan in CI (Solver* filter).
  Marginal m({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1});
  FluidQueueSolver s(m, pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  for (const std::size_t bins : {std::size_t{128}, std::size_t{1024}}) {
    const auto ref = s.iterate_fixed(bins, 24);
    std::vector<FluidQueueSolver::LevelSnapshot> runs(4);
    numerics::parallel_for(runs.size(), [&](std::size_t i) { runs[i] = s.iterate_fixed(bins, 24); },
                           4);
    for (const auto& run : runs) {
      EXPECT_EQ(run.q_lower, ref.q_lower) << "bins " << bins;
      EXPECT_EQ(run.q_upper, ref.q_upper) << "bins " << bins;
      EXPECT_EQ(run.loss.lower, ref.loss.lower) << "bins " << bins;
      EXPECT_EQ(run.loss.upper, ref.loss.upper) << "bins " << bins;
    }
  }
}

// Counts heap allocations over 16 steady-state engine steps, after a
// warm-up that lets any lazy one-time work (plan cache inserts) happen.
std::size_t steady_state_step_allocations(std::size_t bins) {
  Marginal m({0.0, 3.0}, {2.0 / 3.0, 1.0 / 3.0});
  FluidQueueSolver s(m, std::make_shared<const dist::DeterministicEpoch>(1.0), 2.0, 1.0);
  queueing::DualFoldEngine engine(s.increment_pmf_lower(bins), s.increment_pmf_upper(bins), bins);
  std::vector<double> q_low(bins + 1, 0.0), q_high(bins + 1, 0.0);
  q_low[0] = 1.0;
  q_high[bins] = 1.0;
  queueing::StepHealth low_health, high_health;
  for (int i = 0; i < 4; ++i) engine.step(q_low, q_high, low_health, high_health);

  const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int i = 0; i < 16; ++i) engine.step(q_low, q_high, low_health, high_health);
  return g_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(SolverFoldEngine, PackedLayoutStepIsAllocationFreeAt2048) {
  // A large level runs on the caller thread through the workspace and
  // next-state buffers sized at construction: the zero-allocation
  // guarantee holds there as well.
  EXPECT_EQ(steady_state_step_allocations(2048), 0u) << "steady-state epoch loop allocated";
}

TEST(SolverFoldEngine, SteadyStateStepIsAllocationFree) {
  // The acceptance criterion of the zero-allocation engine: once the
  // engine and its workspaces exist (and the FFT plans are cached), the
  // epoch loop must not touch the heap at all.
  EXPECT_EQ(steady_state_step_allocations(128), 0u) << "steady-state epoch loop allocated";
}

// A marginal with one rate equal to c (the zero-increment step at w = 0)
// and a cutoff on a grid edge: with B = 1 and M a power of two, w = +-0.5
// is the grid point i = +-M/2, and the rates 4 and 0 (c = 2) map it to
// t = T_c = 0.25 exactly, so the open and closed tables differ there.
FluidQueueSolver atom_on_edge_solver() {
  return FluidQueueSolver(Marginal({0.0, 2.0, 4.0}, {0.4, 0.4, 0.2}), pareto(0.05, 1.4, 0.25), 2.0,
                          1.0);
}

FluidQueueSolver mtv_solver(double buffer, double cutoff) {
  const core::TraceModel mtv = core::mtv_model();
  core::ModelConfig mc;
  mc.hurst = mtv.hurst;
  mc.mean_epoch = mtv.mean_epoch;
  mc.utilization = mtv.utilization;
  mc.normalized_buffer = buffer;
  mc.cutoff = cutoff;
  return core::FluidModel(mtv.marginal, mc).solver();
}

/// Eq. 21 / 22 from a level's ccdf tables (index i + M): w_L takes
/// differences of Pr{W >= i d}, w_H of Pr{W > i d}.
std::vector<double> pmf_from_table(const std::vector<double>& ccdf, std::size_t bins, bool lower) {
  std::vector<double> w(2 * bins + 1);
  const std::size_t off = lower ? 1 : 0;  // w_L starts at i = -M + 1
  w[0] = 1.0 - ccdf[off];
  for (std::size_t k = 1; k < 2 * bins; ++k) w[k] = ccdf[off + k - 1] - ccdf[off + k];
  w[2 * bins] = ccdf[off + 2 * bins - 1];
  for (double& p : w) p = std::max(p, 0.0);
  return w;
}

TEST(SolverLevelBuild, IterateFixedMatchesPublicSingleSidedBuild) {
  // iterate_fixed builds its level the solver's way: one sweep per rate
  // fills both tables and the kernel. An engine built from the public
  // single-sided pmfs (a sweep filling one table each) must produce the
  // same bits. The level's kernel is read off the tables' epoch values,
  // at headroom (M - j) d, so the bounds agree with a kernel taken from
  // overflow_kernel(j d), at headroom B - j d, up to rounding.
  const FluidQueueSolver five(Marginal({2.0, 6.0, 10.0, 14.0, 18.0}, {0.1, 0.2, 0.4, 0.2, 0.1}),
                              pareto(0.015, 1.3, 10.0), 12.5, 6.25);
  const FluidQueueSolver atom = atom_on_edge_solver();
  for (const FluidQueueSolver* s : {&five, &atom}) {
    for (const std::size_t bins : {std::size_t{1}, std::size_t{8}, std::size_t{128}}) {
      constexpr std::size_t kSteps = 40;
      const auto snap = s->iterate_fixed(bins, kSteps);

      queueing::DualFoldEngine engine(s->increment_pmf_lower(bins), s->increment_pmf_upper(bins),
                                      bins);
      std::vector<double> q_low(bins + 1, 0.0), q_high(bins + 1, 0.0);
      q_low[0] = 1.0;
      q_high[bins] = 1.0;
      queueing::StepHealth low_health, high_health;
      for (std::size_t n = 0; n < kSteps; ++n) engine.step(q_low, q_high, low_health, high_health);
      const numerics::Grid grid(s->buffer(), bins);
      numerics::CompensatedSum lower, upper;
      for (std::size_t j = 0; j <= bins; ++j) {
        const double kernel = s->overflow_kernel(grid.value(j));
        lower.add(q_low[j] * kernel);
        upper.add(q_high[j] * kernel);
      }
      const double work = queueing::expected_work_per_epoch(s->marginal(), s->epochs());

      EXPECT_EQ(snap.q_lower, q_low) << "bins " << bins;
      EXPECT_EQ(snap.q_upper, q_high) << "bins " << bins;
      EXPECT_NEAR(snap.loss.lower, lower.value() / work, 1e-14 * lower.value() / work)
          << "bins " << bins;
      EXPECT_NEAR(snap.loss.upper, upper.value() / work, 1e-14 * upper.value() / work)
          << "bins " << bins;
    }
  }
}

// Replays the levels a solve() reached, building each fine level from the
// coarse one as solve() does, and requires every carried level to equal a
// fresh build at its M: ccdf tables, kernel, pmfs and fold steps.
void expect_carried_levels_match_fresh(const FluidQueueSolver& s, const SolverConfig& cfg,
                                       std::size_t min_levels) {
  const auto r = s.solve(cfg);
  ASSERT_GE(r.levels, min_levels);
  ASSERT_EQ(r.final_bins, cfg.initial_bins << (r.levels - 1));
  using Probe = queueing::LevelBuildProbe;
  Probe::Level level = Probe::build(s, cfg.initial_bins, nullptr);
  for (std::size_t bins = 2 * cfg.initial_bins; bins <= r.final_bins; bins *= 2) {
    Probe::Level carried = Probe::build(s, bins, &level);
    Probe::Level fresh = Probe::build(s, bins, nullptr);
    ASSERT_EQ(carried.ccdf_open.size(), 2 * bins + 1);
    EXPECT_EQ(carried.ccdf_open, fresh.ccdf_open) << "bins " << bins;
    EXPECT_EQ(carried.ccdf_closed, fresh.ccdf_closed) << "bins " << bins;
    EXPECT_EQ(carried.kernel, fresh.kernel) << "bins " << bins;
    EXPECT_EQ(pmf_from_table(carried.ccdf_closed, bins, true), s.increment_pmf_lower(bins))
        << "bins " << bins;
    EXPECT_EQ(pmf_from_table(carried.ccdf_open, bins, false), s.increment_pmf_upper(bins))
        << "bins " << bins;
    std::vector<double> cl(bins + 1, 0.0), ch(bins + 1, 0.0);
    cl[0] = 1.0;
    ch[bins] = 1.0;
    std::vector<double> fl = cl, fh = ch;
    queueing::StepHealth a, b, c, d;
    for (int n = 0; n < 8; ++n) {
      carried.engine.step(cl, ch, a, b);
      fresh.engine.step(fl, fh, c, d);
    }
    EXPECT_EQ(cl, fl) << "bins " << bins;
    EXPECT_EQ(ch, fh) << "bins " << bins;
    level = std::move(carried);
  }
}

TEST(SolverLevelBuild, CarriedLevelsEqualFreshBuildsOnMtv) {
  // Fig. 4's MTV model at b 5, T_c 1 refines through every level to the
  // 4096-bin budget.
  SolverConfig cfg;
  cfg.max_bins = 1 << 12;
  expect_carried_levels_match_fresh(mtv_solver(5.0, 1.0), cfg, 4);
}

TEST(SolverLevelBuild, CarriedLevelsEqualFreshBuildsWithAtomOnGridEdge) {
  const FluidQueueSolver s = atom_on_edge_solver();
  // The atom branch of tabulate is reached: at i = M/2 (t = T_c for the
  // rate above c) Pr{W >= i d} keeps the atom's mass and Pr{W > i d}
  // does not.
  const std::size_t bins = 16;
  const auto level = queueing::LevelBuildProbe::build(s, bins, nullptr);
  const auto* epochs = dynamic_cast<const dist::TruncatedPareto*>(&s.epochs());
  ASSERT_NE(epochs, nullptr);
  EXPECT_EQ(level.ccdf_closed[bins + bins / 2] - level.ccdf_open[bins + bins / 2],
            0.2 * epochs->atom_mass());

  SolverConfig cfg;
  cfg.initial_bins = 8;
  cfg.target_relative_gap = 1e-3;
  cfg.max_bins = 1024;
  expect_carried_levels_match_fresh(s, cfg, 3);
}

FluidQueueSolver bellcore_solver(double buffer, double cutoff) {
  const core::TraceModel bc = core::bellcore_model();
  core::ModelConfig mc;
  mc.hurst = bc.hurst;
  mc.mean_epoch = bc.mean_epoch;
  mc.utilization = bc.utilization;
  mc.normalized_buffer = buffer;
  mc.cutoff = cutoff;
  return core::FluidModel(bc.marginal, mc).solver();
}

/// E[W_l | Q = j d] summed as the level build sums it (rates above c in
/// marginal order), from single excess_mean calls at the headroom the
/// build uses, (M - j) d: grid point i = M - j.
double kernel_at_grid_headroom(const FluidQueueSolver& s, std::size_t bins, std::size_t j) {
  const double headroom = static_cast<double>(bins - j) * numerics::Grid(s.buffer(), bins).step();
  double total = 0.0;
  for (std::size_t r = 0; r < s.marginal().rates().size(); ++r) {
    const double dr = s.marginal().rates()[r] - s.service_rate();
    if (dr > 0.0) total += s.marginal().probs()[r] * dr * s.epochs().excess_mean(headroom / dr);
  }
  return total;
}

/// The same sum with a truncated Pareto's cutoff term left out, each
/// excess as theta / (alpha - 1) * x^(1 - alpha): the scale of the terms
/// that cancel near T_c, against which TruncatedPareto::tabulate states
/// its excess bound.
double kernel_head_sum(const FluidQueueSolver& s, std::size_t bins, std::size_t j) {
  const auto& law = dynamic_cast<const dist::TruncatedPareto&>(s.epochs());
  const double headroom = static_cast<double>(bins - j) * numerics::Grid(s.buffer(), bins).step();
  double total = 0.0;
  for (std::size_t r = 0; r < s.marginal().rates().size(); ++r) {
    const double dr = s.marginal().rates()[r] - s.service_rate();
    if (dr <= 0.0 || headroom / dr >= law.cutoff()) continue;
    const double x = (headroom / dr + law.theta()) / law.theta();
    total += s.marginal().probs()[r] * dr * law.theta() / (law.alpha() - 1.0) *
             std::pow(x, 1.0 - law.alpha());
  }
  return total;
}

TEST(SolverLevelBuild, KernelMatchesOverflowKernelAtEveryGridPoint) {
  // The level's kernel at occupancy j is read off the sweep's excess
  // means at grid point i = M - j, headroom (M - j) d. Against single
  // excess_mean calls at that headroom it keeps tabulate's stated bound
  // (4 DBL_EPSILON of the head sum; the products and sums round alike on
  // both sides). Against overflow_kernel(j d), whose headroom B - j d also
  // carries j d's rounding, it is within 1e-13 of the head sum: near T_c
  // the excess cancels against the cutoff term on both sides, so no
  // bound relative to the kernel itself holds there. Fresh and carried
  // levels alike.
  const std::vector<FluidQueueSolver> solvers = {
      mtv_solver(5.0, 1.0),      mtv_solver(0.2, 10.0),
      mtv_solver(1.0, std::numeric_limits<double>::infinity()),
      bellcore_solver(5.0, 0.1), bellcore_solver(1.0, 100.0), atom_on_edge_solver()};
  using Probe = queueing::LevelBuildProbe;
  for (std::size_t n = 0; n < solvers.size(); ++n) {
    const FluidQueueSolver& s = solvers[n];
    Probe::Level level = Probe::build(s, 16, nullptr);
    for (std::size_t bins = 16; bins <= 1024; bins *= 2) {
      if (bins > 16) level = Probe::build(s, bins, &level);
      const numerics::Grid grid(s.buffer(), bins);
      ASSERT_EQ(level.kernel.size(), bins + 1);
      for (std::size_t j = 0; j <= bins; ++j) {
        const double head = kernel_head_sum(s, bins, j);
        EXPECT_NEAR(level.kernel[j], kernel_at_grid_headroom(s, bins, j), 4 * DBL_EPSILON * head)
            << "solver " << n << " bins " << bins << " j " << j;
        EXPECT_NEAR(level.kernel[j], s.overflow_kernel(grid.value(j)), 1e-13 * head)
            << "solver " << n << " bins " << bins << " j " << j;
      }
    }
  }
}

/// Deterministic 1 s epochs (mean, excess mean and a reported support of
/// 1.0) whose ccdfs, the only values it overrides, keep an atom of mass
/// 1/2 at t = 1 and a tail out to t = 4, past that support. The level
/// build reaches it through EpochDistribution::tabulate's default.
class ScalarOnlyEpoch final : public dist::EpochDistribution {
 public:
  double mean() const override { return base_.mean(); }
  double variance() const override { return base_.variance(); }
  double ccdf_open(double t) const override { return t < 1.0 ? 1.0 : tail(t); }
  double ccdf_closed(double t) const override { return t <= 1.0 ? 1.0 : tail(t); }
  double excess_mean(double u) const override { return base_.excess_mean(u); }
  double max_support() const override { return base_.max_support(); }
  double sample(numerics::Rng& rng) const override { return base_.sample(rng); }

 private:
  static double tail(double t) { return t >= 4.0 ? 0.0 : (4.0 - t) / 6.0; }
  dist::DeterministicEpoch base_{1.0};
};

/// The increment ccdf tables as a per-point build makes them: at every
/// grid point, each rate in marginal order, one single ccdf call per side.
void per_point_tables(const FluidQueueSolver& s, std::size_t bins, std::vector<double>& open,
                      std::vector<double>& closed) {
  const double d = numerics::Grid(s.buffer(), bins).step();
  const auto m = static_cast<double>(bins);
  const auto& rates = s.marginal().rates();
  const auto& probs = s.marginal().probs();
  open.assign(2 * bins + 1, 0.0);
  closed.assign(2 * bins + 1, 0.0);
  for (std::size_t k = 0; k <= 2 * bins; ++k) {
    const double w = (static_cast<double>(k) - m) * d;
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const double dr = rates[r] - s.service_rate();
      if (dr == 0.0) {
        if (w < 0.0) open[k] += probs[r];
        if (w <= 0.0) closed[k] += probs[r];
        continue;
      }
      const double t = w / dr;
      if (dr > 0.0) {
        open[k] += probs[r] * s.epochs().ccdf_open(t);
        closed[k] += probs[r] * s.epochs().ccdf_closed(t);
      } else {
        open[k] += probs[r] * (1.0 - s.epochs().ccdf_closed(t));
        closed[k] += probs[r] * (1.0 - s.epochs().ccdf_open(t));
      }
    }
  }
}

TEST(SolverLevelBuild, DefaultTabulateGivesPerPointTables) {
  // Rates 0, 2 and 3 around c = 2 with B = 4: at M a multiple of 4 the
  // atom at t = 1 falls on grid points of both the rate above c (i = M/4)
  // and the one below (i = -M/2), and the ccdf is non-zero up to t = 4,
  // past the reported support of 1.
  const FluidQueueSolver s(Marginal({0.0, 2.0, 3.0}, {0.5, 0.25, 0.25}),
                           std::make_shared<const ScalarOnlyEpoch>(), 2.0, 4.0);
  using Probe = queueing::LevelBuildProbe;
  std::vector<double> open, closed;
  Probe::Level coarse = Probe::build(s, 8, nullptr);
  for (const std::size_t bins : {std::size_t{1}, std::size_t{8}, std::size_t{16}, std::size_t{48}}) {
    per_point_tables(s, bins, open, closed);
    const Probe::Level level = Probe::build(s, bins, nullptr);
    EXPECT_EQ(level.ccdf_open, open) << "bins " << bins;
    EXPECT_EQ(level.ccdf_closed, closed) << "bins " << bins;
    EXPECT_EQ(s.increment_pmf_lower(bins), pmf_from_table(closed, bins, true)) << "bins " << bins;
    EXPECT_EQ(s.increment_pmf_upper(bins), pmf_from_table(open, bins, false)) << "bins " << bins;
    // The default's excess is excess_mean's, so the kernel is its sum.
    for (std::size_t j = 0; j <= bins; ++j)
      EXPECT_EQ(level.kernel[j], kernel_at_grid_headroom(s, bins, j)) << "bins " << bins << " j " << j;
  }
  // The atom's mass, 1/2 times the rate's probability, at both points.
  const Probe::Level level = Probe::build(s, 16, nullptr);
  EXPECT_EQ(level.ccdf_closed[16 + 4] - level.ccdf_open[16 + 4], 0.125);
  EXPECT_EQ(level.ccdf_closed[16 - 8] - level.ccdf_open[16 - 8], 0.25);
  // A carried level equals a fresh one here too.
  const Probe::Level carried = Probe::build(s, 16, &coarse);
  EXPECT_EQ(carried.ccdf_open, level.ccdf_open);
  EXPECT_EQ(carried.ccdf_closed, level.ccdf_closed);
  EXPECT_EQ(carried.kernel, level.kernel);
}

/// Truncated Pareto epochs whose every ccdf call busy-waits at least
/// `wait_s` seconds and is counted. Only the one-sided ccdfs are
/// overridden, so the level build's tabulate default makes two counted
/// calls per point it asks for.
class SlowCcdfEpoch final : public dist::EpochDistribution {
 public:
  explicit SlowCcdfEpoch(double wait_s) : wait_s_(wait_s) {}
  double mean() const override { return base_.mean(); }
  double variance() const override { return base_.variance(); }
  double ccdf_open(double t) const override {
    wait();
    return base_.ccdf_open(t);
  }
  double ccdf_closed(double t) const override {
    wait();
    return base_.ccdf_closed(t);
  }
  double excess_mean(double u) const override { return base_.excess_mean(u); }
  double max_support() const override { return base_.max_support(); }
  double sample(numerics::Rng& rng) const override { return base_.sample(rng); }
  std::size_t calls() const noexcept { return calls_.load(std::memory_order_relaxed); }

 private:
  void wait() const {
    calls_.fetch_add(1, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count() < wait_s_) {
    }
  }
  double wait_s_;
  dist::TruncatedPareto base_{0.015, 1.3, 10.0};
  mutable std::atomic<std::size_t> calls_{0};
};

TEST(SolverTelemetry, EveryLevelsWallTimeIncludesItsBuild) {
  // Each level's clock starts before its build: the first level's fresh
  // build and every refinement's carried one. One check per level
  // (max_iterations_per_level 16) keeps the fold steps short beside the
  // builds, whose ccdf calls each wait 20 us.
  constexpr double kWait = 20e-6;
  const auto epochs = std::make_shared<const SlowCcdfEpoch>(kWait);
  const FluidQueueSolver s(Marginal({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3}), epochs, 7.5, 2.0);
  SolverConfig cfg;
  cfg.initial_bins = 16;
  cfg.max_bins = 128;
  cfg.max_iterations_per_level = queueing::kCheckEvery;
  cfg.target_relative_gap = 1e-9;
  cfg.collect_telemetry = true;
  std::vector<std::size_t> build_calls;  // counted ccdf calls of each level's build
  {
    std::size_t before = epochs->calls();
    auto level = queueing::LevelBuildProbe::build(s, cfg.initial_bins, nullptr);
    build_calls.push_back(epochs->calls() - before);
    for (std::size_t bins = 2 * cfg.initial_bins; bins <= cfg.max_bins; bins *= 2) {
      before = epochs->calls();
      level = queueing::LevelBuildProbe::build(s, bins, &level);
      build_calls.push_back(epochs->calls() - before);
    }
  }
  const auto r = s.solve(cfg);
  EXPECT_EQ(r.stop, queueing::SolverStop::kBinBudget);
  ASSERT_EQ(r.telemetry.levels.size(), build_calls.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < build_calls.size(); ++i) {
    const obs::LevelTelemetry& level = r.telemetry.levels[i];
    EXPECT_EQ(level.bins, cfg.initial_bins << i);
    EXPECT_GT(build_calls[i], 0u);
    EXPECT_GE(level.wall_seconds, static_cast<double>(build_calls[i]) * kWait)
        << "level " << i + 1 << ", " << build_calls[i] << " ccdf calls";
    sum += level.wall_seconds;
  }
  EXPECT_LE(sum, r.telemetry.total_seconds);
}

/// A perfbench cell: a Fig. 4/5 surface cell (gap 0.2, max_bins 4096) or
/// a solve_tight cell (gap 0.02, max_bins 16384).
struct BenchCell {
  dist::Marginal marginal;
  core::ModelConfig model;
  SolverConfig solver;
};

BenchCell bench_cell(const dist::Marginal& marginal, double hurst, double mean_epoch,
                     double utilization, double buffer, double cutoff, double gap,
                     std::size_t max_bins) {
  BenchCell c{marginal, {}, {}};
  c.model.hurst = hurst;
  c.model.mean_epoch = mean_epoch;
  c.model.utilization = utilization;
  c.model.normalized_buffer = buffer;
  c.model.cutoff = cutoff;
  c.solver.target_relative_gap = gap;
  c.solver.max_bins = max_bins;
  return c;
}

TEST(SolverFftSimd, ConvergedSolvesAgreeAcrossTables) {
  // The kernel tables above the convolver: a converged solve on the vector
  // table takes the scalar table's path (levels, iterations, final bins,
  // stop reason) and its bounds move only by the butterflies' FMA
  // rounding. One cell per path: one 128-bin level, two refinements to
  // 512 bins, 1,952 iterations after one refinement, and a tight cell
  // refined to 1024 bins; every loss is above 1e-6. The 1e-12 bound is
  // not met by every perfbench cell: three long converged ones differ by
  // 1.0-1.8e-12 (docs/NUMERICS.md, "A vector-width pack and scan").
  lrd::testing::KernelGuard guard;
  const auto tables = lrd::testing::usable_tables();
  if (tables.size() < 2) GTEST_SKIP() << "no vector ISA on this build/CPU";
  const core::TraceModel mtv = core::mtv_model();
  const core::TraceModel bc = core::bellcore_model();
  const Marginal three({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const BenchCell cells[] = {
      bench_cell(mtv.marginal, mtv.hurst, mtv.mean_epoch, mtv.utilization, 0.2, 10.0, 0.2, 1 << 12),
      bench_cell(mtv.marginal, mtv.hurst, mtv.mean_epoch, mtv.utilization, 5.0, 10.0, 0.2, 1 << 12),
      bench_cell(bc.marginal, bc.hurst, bc.mean_epoch, bc.utilization, 5.0, 100.0, 0.2, 1 << 12),
      bench_cell(three, 0.85, 0.05, 0.8, 0.5, 10.0, 0.02, 1 << 14)};
  for (const BenchCell& cell : cells) {
    const core::FluidModel model(cell.marginal, cell.model);
    ASSERT_TRUE(numerics::simd::set_active_kernels_for_testing(tables[0]));
    const auto want = model.solve(cell.solver);
    ASSERT_TRUE(want.converged);
    ASSERT_GT(want.loss.lower, 1e-6);
    const std::string where = "b " + std::to_string(cell.model.normalized_buffer) + " T_c " +
                              std::to_string(cell.model.cutoff);
    for (std::size_t t = 1; t < tables.size(); ++t) {
      ASSERT_TRUE(numerics::simd::set_active_kernels_for_testing(tables[t]));
      const auto got = model.solve(cell.solver);
      const std::string table = numerics::simd::active_isa_name();
      EXPECT_EQ(got.levels, want.levels) << table << " " << where;
      EXPECT_EQ(got.iterations, want.iterations) << table << " " << where;
      EXPECT_EQ(got.final_bins, want.final_bins) << table << " " << where;
      EXPECT_EQ(got.stop, want.stop) << table << " " << where;
      EXPECT_NEAR(got.loss.lower, want.loss.lower, 1e-12 * want.loss.lower)
          << table << " " << where;
      EXPECT_NEAR(got.loss.upper, want.loss.upper, 1e-12 * want.loss.upper)
          << table << " " << where;
    }
  }
}

}  // namespace
