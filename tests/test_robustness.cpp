// Failure-path tests: the error taxonomy (Status / Expected / Diagnostics),
// validated configs, hardened trace ingestion, and the solver's
// numerical-health guardrails. Every pathological input here must come back
// as a structured diagnostic — never a crash, a hang, or NaN bounds.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/status.hpp"
#include "dist/simple_epochs.hpp"
#include "dist/truncated_pareto.hpp"
#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "queueing/fluid_queue_sim.hpp"
#include "queueing/solver.hpp"
#include "queueing/trace_queue_sim.hpp"
#include "runtime/executor.hpp"
#include "runtime/manifest.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace lrd;
using dist::Marginal;
using queueing::FluidQueueSolver;
using queueing::SolverConfig;
using queueing::SolverStop;
using traffic::RateTrace;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// ---------------------------------------------------------------------------
// Status / Expected / Diagnostics core.

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(st.category(), ErrorCategory::kNone);
  EXPECT_EQ(st.describe(), "ok");
}

TEST(Status, FailureCarriesDiagnostics) {
  auto d = make_diagnostics(ErrorCategory::kNumericalGuard, "test.component",
                            "mass is conserved", "mass = 0.5");
  d.iteration = 17;
  d.level = 2;
  const Status st = Status::failure(d);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.category(), ErrorCategory::kNumericalGuard);
  const std::string text = st.describe();
  EXPECT_NE(text.find("numerical-guard"), std::string::npos);
  EXPECT_NE(text.find("test.component"), std::string::npos);
  EXPECT_NE(text.find("mass is conserved"), std::string::npos);
  EXPECT_NE(text.find("iteration 17"), std::string::npos);
  EXPECT_NE(text.find("level 2"), std::string::npos);
}

TEST(Status, DescribeIncludesLineNumber) {
  auto d = make_diagnostics(ErrorCategory::kParse, "traffic.trace", "rates are numbers",
                            "unparsable rate 'x'");
  d.line = 42;
  EXPECT_NE(Status::failure(d).describe().find("line 42"), std::string::npos);
}

TEST(Expected, ValueAndErrorPaths) {
  Expected<int> good(7);
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(static_cast<bool>(good));
  EXPECT_EQ(good.value(), 7);
  EXPECT_TRUE(good.status().is_ok());

  Expected<int> bad(make_diagnostics(ErrorCategory::kIo, "test", "file opens", "nope"));
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().category(), ErrorCategory::kIo);
  EXPECT_THROW(bad.value(), std::logic_error);
  EXPECT_EQ(Expected<int>(3).take(), 3);
}

TEST(ExitCodes, TaxonomyMapsToDistinctCodes) {
  EXPECT_EQ(exit_code_for(ErrorCategory::kNone), 0);
  EXPECT_EQ(exit_code_for(ErrorCategory::kInvalidArgument), 3);
  EXPECT_EQ(exit_code_for(ErrorCategory::kInvalidConfig), 3);
  EXPECT_EQ(exit_code_for(ErrorCategory::kParse), 4);
  EXPECT_EQ(exit_code_for(ErrorCategory::kIo), 5);
  EXPECT_EQ(exit_code_for(ErrorCategory::kNumericalGuard), 6);
  EXPECT_EQ(exit_code_for(ErrorCategory::kResourceExhausted), 6);
  EXPECT_EQ(exit_code_for(ErrorCategory::kInternal), 6);
}

TEST(Exceptions, CarryDiagnosticsAndKeepLegacyBases) {
  const auto d =
      make_diagnostics(ErrorCategory::kInvalidConfig, "c", "x > 0", "x = -1");
  try {
    throw_error(d);
    FAIL() << "throw_error returned";
  } catch (const std::invalid_argument& e) {  // ConfigError is-a invalid_argument
    const Diagnostics* got = diagnostics_of(e);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->category, ErrorCategory::kInvalidConfig);
    EXPECT_EQ(got->invariant, "x > 0");
  }
  try {
    throw_error(make_diagnostics(ErrorCategory::kParse, "c", "i", "m"));
    FAIL() << "throw_error returned";
  } catch (const std::runtime_error& e) {  // DataError is-a runtime_error
    ASSERT_NE(diagnostics_of(e), nullptr);
    EXPECT_EQ(diagnostics_of(e)->category, ErrorCategory::kParse);
  }
  const std::logic_error plain("no diagnostics here");
  EXPECT_EQ(diagnostics_of(plain), nullptr);
}

// ---------------------------------------------------------------------------
// Validated configs.

TEST(Validation, SolverConfigReportsPreciseField) {
  SolverConfig c;
  c.initial_bins = 1;
  auto st = c.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.category(), ErrorCategory::kInvalidConfig);
  EXPECT_NE(st.describe().find("initial_bins"), std::string::npos);

  c = SolverConfig{};
  c.target_relative_gap = kNan;
  EXPECT_FALSE(c.validate().is_ok());
  c = SolverConfig{};
  EXPECT_TRUE(c.validate().is_ok());
}

TEST(Validation, ModelConfigRejectsBadHurstAndUtilization) {
  core::ModelConfig cfg;
  cfg.hurst = 0.5;
  EXPECT_FALSE(cfg.validate().is_ok());
  cfg = core::ModelConfig{};
  cfg.utilization = 1.0;
  EXPECT_FALSE(cfg.validate().is_ok());
  cfg = core::ModelConfig{};
  EXPECT_TRUE(cfg.validate().is_ok());
  cfg.utilization = 1.2;
  Marginal m({2.0, 6.0}, {0.5, 0.5});
  try {
    core::FluidModel model(m, cfg);
    FAIL() << "FluidModel accepted utilization = 1.2";
  } catch (const ConfigError& e) {
    ASSERT_NE(diagnostics_of(e), nullptr);
    EXPECT_NE(std::string(e.what()).find("utilization"), std::string::npos);
  }
}

TEST(Validation, DistributionParamsCarryDiagnostics) {
  try {
    dist::TruncatedPareto bad(0.01, 1.0, 10.0);  // alpha must be > 1
    FAIL() << "TruncatedPareto accepted alpha = 1";
  } catch (const ConfigError& e) {
    ASSERT_NE(diagnostics_of(e), nullptr);
    EXPECT_EQ(diagnostics_of(e)->category, ErrorCategory::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos);
  }
  EXPECT_THROW(dist::TruncatedPareto(kNan, 1.3, 10.0), std::invalid_argument);
}

TEST(Validation, SimulatorConfigs) {
  Marginal m({1.0}, {1.0});
  dist::ExponentialEpoch d(1.0);
  queueing::FluidSimConfig bad;
  bad.batches = 1;
  EXPECT_THROW(queueing::simulate_fluid_queue(m, d, 2.0, 1.0, bad), ConfigError);
  EXPECT_FALSE(bad.validate().is_ok());
  EXPECT_THROW(queueing::simulate_fluid_queue(m, d, kNan, 1.0), ConfigError);
  RateTrace trace({1.0, 2.0, 1.0}, 0.1);
  EXPECT_THROW(queueing::simulate_trace_queue(trace, kNan, 1.0), ConfigError);
  EXPECT_THROW(queueing::simulate_trace_queue_normalized(trace, 1.5, 1.0), ConfigError);
}

// ---------------------------------------------------------------------------
// Hardened trace ingestion.

Expected<RateTrace> parse(const std::string& text) {
  std::istringstream is(text);
  return RateTrace::try_load(is);
}

TEST(TraceParse, RejectsMalformedHeaderWithLineNumber) {
  auto r = parse("not a header at all extra tokens\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().category(), ErrorCategory::kParse);
  EXPECT_EQ(r.diagnostics().line, 1);

  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("0 3\n1\n2\n3\n").has_value());        // bin length <= 0
  EXPECT_FALSE(parse("0.01 2.5\n1\n2\n").has_value());      // non-integer count
  EXPECT_FALSE(parse("0.01 99999999999999\n").has_value()); // absurd count, no bad_alloc
  EXPECT_FALSE(parse("0.01 1e300\n").has_value());          // past 2^64, no cast
  EXPECT_FALSE(parse("0.01 536870912\n1\n").has_value());   // at the cap: truncated
}

TEST(TraceParse, RejectsBadRatesWithLineNumber) {
  auto r = parse("0.01 3\n1.0\nbogus\n2.0\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().category(), ErrorCategory::kParse);
  EXPECT_EQ(r.diagnostics().line, 3);
  EXPECT_NE(r.diagnostics().message.find("bogus"), std::string::npos);

  r = parse("0.01 3\n1.0\nnan\n2.0\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.diagnostics().message.find("non-finite"), std::string::npos);

  r = parse("0.01 3\n1.0\n-2.0\n2.0\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.diagnostics().message.find("negative"), std::string::npos);
  EXPECT_EQ(r.diagnostics().line, 3);
}

TEST(TraceParse, ReportsTruncationPrecisely) {
  auto r = parse("0.01 5\n1.0\n2.0\n");
  ASSERT_FALSE(r.has_value());
  EXPECT_NE(r.diagnostics().message.find("got 2 of 5"), std::string::npos);
}

TEST(TraceParse, GoodTraceRoundTrips) {
  auto r = parse("0.01 3\n1.0 2.0\n3.0\n");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r.value().size(), 3u);
  EXPECT_DOUBLE_EQ(r.value()[2], 3.0);
}

TEST(TraceParse, ThrowingWrapperIsDataError) {
  const std::string path = ::testing::TempDir() + "/lrd_truncated_trace.txt";
  std::ofstream(path) << "0.01 5\n1.0\n";
  EXPECT_THROW(RateTrace::load_file(path), DataError);
  EXPECT_THROW(RateTrace::load_file(path), std::runtime_error);  // legacy base preserved
  std::remove(path.c_str());
}

TEST(TraceParse, MissingFileIsIoCategory) {
  auto r = RateTrace::try_load_file("/nonexistent/definitely/missing.txt");
  ASSERT_FALSE(r.has_value());
  EXPECT_EQ(r.status().category(), ErrorCategory::kIo);
}

TEST(TraceParse, CtorRejectsNegativeAndNonFiniteRates) {
  EXPECT_THROW(RateTrace({1.0, -0.5}, 0.1), ConfigError);
  EXPECT_THROW(RateTrace({1.0, kNan}, 0.1), std::invalid_argument);
  EXPECT_THROW(RateTrace({1.0}, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Solver guardrails and structured exit paths.

FluidQueueSolver make_solver(double service_rate = 2.0, double buffer = 1.0) {
  Marginal m({0.0, 3.0}, {2.0 / 3.0, 1.0 / 3.0});
  auto d = std::make_shared<const dist::DeterministicEpoch>(1.0);
  return FluidQueueSolver(m, d, service_rate, buffer);
}

/// Deterministic 1 s epochs whose ccdf at t > 0 is `ccdf` instead. The
/// solver builds every level's increment pmfs from the epoch ccdfs, so a
/// broken ccdf reaches the fold through the seam any epoch law uses.
class BrokenCcdfEpoch final : public dist::EpochDistribution {
 public:
  explicit BrokenCcdfEpoch(double (*ccdf)(double)) : ccdf_(ccdf) {}
  double mean() const override { return base_.mean(); }
  double variance() const override { return base_.variance(); }
  double ccdf_open(double t) const override { return t <= 0.0 ? 1.0 : ccdf_(t); }
  double ccdf_closed(double t) const override { return ccdf_open(t); }
  double excess_mean(double u) const override { return base_.excess_mean(u); }
  double max_support() const override { return base_.max_support(); }
  double sample(numerics::Rng& rng) const override { return base_.sample(rng); }

 private:
  dist::DeterministicEpoch base_{1.0};
  double (*ccdf_)(double);
};

/// The make_solver() queue with B = 4: increments reach +-4, so the
/// peak rate's epoch ccdf is sampled on (0, 4].
FluidQueueSolver make_broken_solver(double (*ccdf)(double)) {
  Marginal m({0.0, 3.0}, {2.0 / 3.0, 1.0 / 3.0});
  return FluidQueueSolver(m, std::make_shared<const BrokenCcdfEpoch>(ccdf), 2.0, 4.0);
}

TEST(SolverGuards, OverloadedQueueSolvesWithFiniteBracket) {
  // utilization > 1 is NOT pathological for a finite buffer: the chain is
  // stable and the loss is simply heavy. The solver must converge with an
  // ok status (no spurious guard noise), never NaN.
  const auto solver = make_solver(0.9, 1.0);  // mean 1, peak 3, c = 0.9
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_TRUE(std::isfinite(r.loss.lower));
  EXPECT_TRUE(std::isfinite(r.loss.upper));
  EXPECT_GT(r.loss_estimate(), 0.0);
  // The structured utilization >= 1 rejection lives at the model layer,
  // where rho in (0, 1) is what defines the service rate.
  core::ModelConfig cfg;
  cfg.utilization = 1.1;
  EXPECT_THROW(core::FluidModel(Marginal({2.0, 6.0}, {0.5, 0.5}), cfg), ConfigError);
}

TEST(SolverGuards, LeakingIncrementPmfTripsMassGuard) {
  // A ccdf that is not monotone on (0, 4]: the level build clamps its
  // negative differences to zero, so both increment pmfs carry mass above
  // 1 and every fold step creates mass, which the step's renormalization
  // would silently take away if the guard measured after clamping.
  const auto solver =
      make_broken_solver([](double t) { return 0.5 * (1.0 + std::cos(3.0 * t)); });
  SolverConfig cfg;
  cfg.initial_bins = 64;
  cfg.max_bins = 64;
  const auto r = solver.solve(cfg);

  EXPECT_EQ(r.stop, SolverStop::kGuardTripped);
  EXPECT_FALSE(r.converged);
  ASSERT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.status.category(), ErrorCategory::kNumericalGuard);
  const auto& d = r.status.diagnostics();
  EXPECT_NE(d.invariant.find("mass"), std::string::npos);
  EXPECT_NE(d.iteration, Diagnostics::npos);  // context: where it tripped
  EXPECT_EQ(d.last_healthy_level, r.last_healthy_level);
  // The leak poisons the very first level, so no healthy state exists and
  // the solver falls back to the vacuous-but-valid bracket.
  EXPECT_EQ(r.last_healthy_level, 0u);
  EXPECT_DOUBLE_EQ(r.loss.lower, 0.0);
  EXPECT_DOUBLE_EQ(r.loss.upper, 1.0);
  // Populated on every exit path.
  EXPECT_GT(r.final_bins, 0u);
  EXPECT_GE(r.levels, 1u);
}

TEST(SolverGuards, TripAfterARefinementRollsBackToTheCoarseLevel) {
  // Monotone at the 16-bin level's grid points (multiples of 1/8) and
  // bumped up between them, so only the refined level's pmfs leak mass.
  // Its first check trips the guard; the result is the coarse level's
  // last check, the one before.
  const auto solver = make_broken_solver(
      [](double t) { return std::exp(-t) + (std::fmod(t, 0.125) != 0.0 ? 0.3 : 0.0); });
  SolverConfig cfg;
  cfg.initial_bins = 16;
  cfg.max_bins = 256;
  cfg.max_iterations_per_level = 32;
  cfg.target_relative_gap = 1e-9;
  cfg.collect_telemetry = true;
  const auto r = solver.solve(cfg);

  EXPECT_EQ(r.stop, SolverStop::kGuardTripped);
  EXPECT_EQ(r.status.category(), ErrorCategory::kNumericalGuard);
  const auto& d = r.status.diagnostics();
  EXPECT_EQ(d.invariant, "occupancy pmf conserves unit mass");
  EXPECT_EQ(d.iteration, 48u);
  EXPECT_EQ(d.level, 2u);
  EXPECT_EQ(d.bins, 32u);
  EXPECT_EQ(d.last_healthy_level, 1u);
  EXPECT_EQ(r.last_healthy_level, 1u);
  EXPECT_EQ(r.iterations, 48u);
  EXPECT_EQ(r.levels, 2u);
  EXPECT_EQ(r.final_bins, 16u);
  ASSERT_EQ(r.occupancy_lower.size(), 17u);
  ASSERT_EQ(r.occupancy_upper.size(), 17u);
  // The coarse level's last bracket, which its telemetry also closed on.
  ASSERT_EQ(r.telemetry.levels.size(), 2u);
  EXPECT_EQ(r.loss.lower, r.telemetry.levels[0].bracket_lower);
  EXPECT_EQ(r.loss.upper, r.telemetry.levels[0].bracket_upper);
  EXPECT_GT(r.loss.lower, 0.0);
  EXPECT_LE(r.loss.lower, r.loss.upper);
  EXPECT_GT(r.telemetry.levels[1].mass_drift, queueing::kMassTolerance);
  // The refined level never evaluated its bounds: its bracket is NaN,
  // which the telemetry JSON prints as null, not level 1's bracket.
  EXPECT_TRUE(std::isnan(r.telemetry.levels[1].bracket_lower));
  EXPECT_TRUE(std::isnan(r.telemetry.levels[1].bracket_upper));
  const std::string json = r.telemetry.to_json();
  EXPECT_NE(json.find("\"bins\": 32, \"iterations\": 16, \"bracket_lower\": null, "
                      "\"bracket_upper\": null, \"bracket_width\": null"),
            std::string::npos)
      << json;
}

TEST(SolverGuards, NonFiniteKernelIsCaughtUpFront) {
  // A ccdf that returns NaN puts NaN in both increment pmfs; the
  // convolver's finiteness check fires as a DataError (kNumericalGuard).
  const auto solver = make_broken_solver([](double) { return kNan; });
  SolverConfig cfg;
  cfg.initial_bins = 64;
  cfg.max_bins = 64;
  try {
    (void)solver.solve(cfg);
    FAIL() << "NaN kernel was accepted";
  } catch (const DataError& e) {
    ASSERT_NE(diagnostics_of(e), nullptr);
    EXPECT_EQ(diagnostics_of(e)->category, ErrorCategory::kNumericalGuard);
  }
}

TEST(SolverGuards, BudgetExhaustionKeepsValidWideBracket) {
  // Demand an absurdly tight gap with no room to refine: the solver must
  // surface kResourceExhausted and still hand back a finite bracket.
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  auto d = std::make_shared<const dist::TruncatedPareto>(0.015, 1.3, 10.0);
  FluidQueueSolver solver(m, d, 7.5, 2.0);
  SolverConfig cfg;
  cfg.initial_bins = 32;
  cfg.max_bins = 64;
  cfg.target_relative_gap = 1e-9;
  cfg.max_total_iterations = 2000;
  const auto r = solver.solve(cfg);
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.stop == SolverStop::kIterationBudget || r.stop == SolverStop::kBinBudget);
  ASSERT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.status.category(), ErrorCategory::kResourceExhausted);
  EXPECT_TRUE(std::isfinite(r.loss.lower));
  EXPECT_TRUE(std::isfinite(r.loss.upper));
  EXPECT_LE(r.loss.lower, r.loss.upper);
  EXPECT_GT(r.final_bins, 0u);
  EXPECT_GE(r.levels, 1u);
  EXPECT_GE(r.last_healthy_level, 1u);
}

TEST(SolverGuards, HealthyPathStaysClean) {
  // A benign solve must report kConverged / kZeroLoss with an ok status —
  // the guardrails may not perturb the paper-faithful path.
  const auto solver = make_solver();
  const auto r = solver.solve();
  EXPECT_TRUE(r.converged);
  EXPECT_TRUE(r.status.is_ok());
  EXPECT_TRUE(r.stop == SolverStop::kConverged || r.stop == SolverStop::kZeroLoss);
  EXPECT_GE(r.last_healthy_level, 1u);
}

// ---------------------------------------------------------------------------
// Deadline-bounded solves.

/// A cell that cannot converge in any reasonable time: heavy-tailed
/// epochs plus an absurdly tight gap. Same shape as the budget test
/// above, but with the iteration budget opened wide so only the
/// wall-clock deadline (or cancellation) can stop the solve.
FluidQueueSolver make_pathological_solver() {
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  auto d = std::make_shared<const dist::TruncatedPareto>(0.015, 1.3, 10.0);
  return FluidQueueSolver(m, d, 7.5, 2.0);
}

SolverConfig unbounded_pathological_config() {
  SolverConfig cfg;
  cfg.initial_bins = 32;
  cfg.max_bins = 1 << 20;
  cfg.target_relative_gap = 1e-12;
  cfg.max_total_iterations = 1000000000;
  return cfg;
}

TEST(SolverDeadline, ExpiryReturnsWideValidBracketNeverAHang) {
  const auto solver = make_pathological_solver();
  auto cfg = unbounded_pathological_config();
  cfg.deadline_ms = 20;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = solver.solve(cfg);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  EXPECT_EQ(r.stop, SolverStop::kDeadlineExceeded);
  EXPECT_FALSE(r.converged);
  ASSERT_FALSE(r.status.is_ok());
  EXPECT_EQ(r.status.category(), ErrorCategory::kResourceExhausted);
  EXPECT_NE(r.status.diagnostics().message.find("deadline_exceeded"), std::string::npos);
  // The bracket reported is the one evaluated at the last check-block
  // boundary: wide, but valid (Prop. II.1 holds at any n), never NaN.
  EXPECT_TRUE(std::isfinite(r.loss.lower));
  EXPECT_TRUE(std::isfinite(r.loss.upper));
  EXPECT_LE(r.loss.lower, r.loss.upper);
  EXPECT_GT(r.final_bins, 0u);
  // Deadline overshoot is bounded by one check block — generous slack
  // here for loaded CI, but nowhere near the unbounded-solve regime.
  EXPECT_LT(elapsed_s, 30.0);
}

TEST(SolverDeadline, CancellationTokenStopsAtNextCheck) {
  const auto solver = make_pathological_solver();
  auto cfg = unbounded_pathological_config();
  runtime::CancellationToken token;
  token.cancel();  // pre-cancelled: first check-block boundary must exit
  cfg.cancellation = &token;
  const auto r = solver.solve(cfg);
  EXPECT_EQ(r.stop, SolverStop::kCancelled);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.status.category(), ErrorCategory::kResourceExhausted);
  EXPECT_NE(r.status.diagnostics().message.find("cancelled"), std::string::npos);
  EXPECT_LE(r.loss.lower, r.loss.upper);
}

TEST(SolverDeadline, GenerousDeadlineDoesNotPerturbHealthySolves) {
  const auto solver = make_solver();
  const auto clean = solver.solve();
  SolverConfig cfg;
  cfg.deadline_ms = 600000;  // ten minutes: unreachable for this solve
  const auto bounded = solver.solve(cfg);
  EXPECT_TRUE(bounded.converged);
  EXPECT_EQ(bounded.loss.lower, clean.loss.lower);
  EXPECT_EQ(bounded.loss.upper, clean.loss.upper);
  EXPECT_EQ(bounded.iterations, clean.iterations);
}

// ---------------------------------------------------------------------------
// Sweep graceful degradation.

TEST(SweepRobustness, InvalidSweepConfigThrowsBeforeAnyCell) {
  Marginal m({2.0, 6.0}, {0.5, 0.5});
  core::ModelSweepConfig cfg;
  cfg.utilization = 1.5;
  EXPECT_THROW(core::loss_vs_buffer_and_cutoff(m, cfg, {0.1}, {1.0}), ConfigError);
}

TEST(SweepRobustness, BudgetStarvedCellsAreRecordedNotFatal) {
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  core::ModelSweepConfig cfg;
  cfg.utilization = 0.9;
  cfg.solver.initial_bins = 16;
  cfg.solver.max_bins = 32;
  cfg.solver.target_relative_gap = 1e-10;
  cfg.solver.max_total_iterations = 400;
  const auto table = core::loss_vs_buffer_and_cutoff(m, cfg, {0.5, 1.0}, {1.0});
  ASSERT_EQ(table.values.size(), 2u);
  // Cells that merely exhausted their budget keep a usable value and are
  // listed in `issues`; the sweep as a whole must not throw.
  EXPECT_FALSE(table.ok());
  EXPECT_FALSE(table.issues.empty());
  for (const auto& row : table.values)
    for (double v : row) EXPECT_FALSE(std::isnan(v));
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("issue"), std::string::npos);
}

TEST(SweepRobustness, AccessRecordsCarryEachCellsSolverOutcome) {
  // Each computed cell's access record names how its solve stopped, with
  // the exit code lrdq_solve would return for it: the large-buffer cells
  // run out of bins, the small-buffer ones converge.
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.85;
  cfg.mean_epoch = 0.05;
  cfg.solver.max_bins = 1024;
  const std::string path = ::testing::TempDir() + "/lrd_sweep_access.jsonl";
  std::remove(path.c_str());
  ASSERT_TRUE(obs::EventLog::global().open(path, 0.0));
  const auto table = core::loss_vs_buffer_and_cutoff(m, cfg, {0.01, 5.0}, {0.1, 1.0});
  obs::EventLog::global().close();

  std::set<std::string> starved;
  for (const auto& issue : table.issues)
    starved.insert(std::to_string(issue.row) + "," + std::to_string(issue.col));
  std::ifstream in(path);
  std::string line;
  std::size_t records = 0, clean = 0;
  while (std::getline(in, line)) {
    auto rec = obs::json::parse(line);
    ASSERT_TRUE(static_cast<bool>(rec)) << line;
    const std::string status = rec.value().string_at("status");
    ++records;
    if (starved.count(rec.value().string_at("id"))) {
      EXPECT_EQ(status, "bin-budget-exhausted") << line;
      EXPECT_EQ(rec.value().count_at("code"), 6u) << line;
    } else {
      ++clean;
      EXPECT_TRUE(status == "converged" || status == "zero-loss") << line;
      EXPECT_EQ(rec.value().count_at("code"), 0u) << line;
    }
  }
  EXPECT_EQ(records, 4u);
  EXPECT_FALSE(starved.empty());
  EXPECT_GT(clean, 0u);
  std::remove(path.c_str());
}

TEST(SweepRobustness, CellDeadlineRetriesCoarserThenMarksDegraded) {
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  core::ModelSweepConfig cfg;
  cfg.utilization = 0.9;
  cfg.solver.initial_bins = 16;
  cfg.solver.max_bins = 1 << 16;
  cfg.solver.target_relative_gap = 1e-12;  // unreachable: every cell times out
  cfg.solver.max_total_iterations = 1000000000;

  runtime::RunManifest manifest;
  core::SweepRunOptions opts;
  opts.cell_deadline_ms = 1;
  opts.max_cell_retries = 2;
  opts.manifest = &manifest;
  if constexpr (obs::kObsEnabled) obs::flight::reset();
  const auto table = core::loss_vs_buffer_and_cutoff(m, cfg, {0.5}, {1.0}, opts);

  // The cell timed out, was retried at coarser bins, and ended degraded —
  // but still carries a usable (wide-bracket) value, and the sweep returns.
  ASSERT_EQ(table.values.size(), 1u);
  EXPECT_FALSE(std::isnan(table.values[0][0]));
  EXPECT_FALSE(table.ok());
  ASSERT_FALSE(table.issues.empty());
  EXPECT_NE(table.issues[0].diagnostics.message.find("deadline_exceeded"), std::string::npos);

  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"deadline_exceeded\": true"), std::string::npos);
  EXPECT_NE(json.find("\"retries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"degraded\": true"), std::string::npos);
  // Aggregate robustness counts appear in the cells summary.
  EXPECT_NE(json.find("\"timed_out\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"retried\": 1"), std::string::npos);

  // Each re-solve leaves one retry flight event: (attempt, halved max_bins).
  if constexpr (obs::kObsEnabled) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> retries;
    for (const auto& rec : obs::flight::snapshot())
      if (rec.event.kind == static_cast<std::uint16_t>(obs::flight::EventKind::kRetry))
        retries.emplace_back(rec.event.a, rec.event.b);
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected = {{1, 32768},
                                                                           {2, 16384}};
    EXPECT_EQ(retries, expected);
  }
}

TEST(SweepRobustness, HealthySweepManifestCarriesNoRobustnessKeys) {
  Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  core::ModelSweepConfig cfg;
  cfg.utilization = 0.8;
  cfg.solver.target_relative_gap = 0.5;
  runtime::RunManifest manifest;
  core::SweepRunOptions opts;
  opts.manifest = &manifest;
  const auto table = core::loss_vs_buffer_and_cutoff(m, cfg, {0.05}, {0.1}, opts);
  EXPECT_TRUE(table.ok());
  // Default-configured runs must emit byte-identical manifests to before
  // the robustness layer existed: no flag keys anywhere. (Quote-delimited
  // searches: the embedded metrics snapshot legitimately contains the
  // metric *name* lrd_solver_deadline_exceeded_total.)
  const std::string json = manifest.to_json();
  EXPECT_EQ(json.find("\"deadline_exceeded\""), std::string::npos);
  EXPECT_EQ(json.find("\"timed_out\""), std::string::npos);
  EXPECT_EQ(json.find("\"degraded\""), std::string::npos);
  EXPECT_EQ(json.find("\"retried\""), std::string::npos);
  EXPECT_EQ(json.find("\"retries\""), std::string::npos);
}

}  // namespace
