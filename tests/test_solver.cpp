// Tests of the bounded queue solver: exact cases, Proposition II.1
// monotonicity, increment-pmf structure, agreement with Monte Carlo, and
// the zero-allocation guarantee of the batched epoch engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>

#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "numerics/convolution.hpp"
#include "numerics/parallel.hpp"
#include "numerics/special_functions.hpp"
#include "queueing/fluid_queue_sim.hpp"
#include "queueing/solver.hpp"

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

TEST(SolverFoldEngine, SplitModeMatchesSequentialBaseline) {
  // Level sizes that once ran the two chains as separate transforms
  // (split mode, 1024 bins and above) take the packed layout; it must
  // match the per-chain direct step there too. 1024 is a power-of-two
  // level, so the transform runs at n = 2M.
  expect_matches_direct_baseline(1024);
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

TEST(SolverFoldEngine, SplitModeSingleThreadStepIsAllocationFree) {
  // Level sizes that once ran split mode run the packed layout on the
  // caller thread through preallocated workspaces: the zero-allocation
  // guarantee holds there as well.
  EXPECT_EQ(steady_state_step_allocations(2048), 0u) << "steady-state epoch loop allocated";
}

TEST(SolverFoldEngine, SteadyStateStepIsAllocationFree) {
  // The acceptance criterion of the zero-allocation engine: once the
  // engine and its workspaces exist (and the FFT plans are cached), the
  // epoch loop must not touch the heap at all.
  EXPECT_EQ(steady_state_step_allocations(128), 0u) << "steady-state epoch loop allocated";
}

}  // namespace
