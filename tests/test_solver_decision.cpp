// Tests of queueing::decide, the solve loop's stop rules, on synthetic
// check records: each case, the order between cases, the stall rule on
// the trajectories that motivate changing it, and the diagnostics each
// stop carries.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "queueing/solver.hpp"

namespace {

using namespace lrd;
using queueing::decide;
using queueing::LossBounds;
using queueing::SolverAction;
using queueing::SolverCheck;
using queueing::SolverConfig;
using queueing::SolverDecision;
using queueing::SolverStop;
using queueing::StallState;

/// A healthy check of level 1 at 128 bins whose bracket [0.01, 0.02] is
/// far from the 20% target: every rule lets it iterate.
SolverCheck open_check() {
  SolverCheck c;
  c.iterations = 32;
  c.level_iterations = 32;
  c.level = 1;
  c.bins = 128;
  c.loss = {0.01, 0.02};
  return c;
}

/// Bounds [0.01, u] whose relative gap is `gap`.
LossBounds with_gap(double gap) { return {0.01, 0.01 * (2.0 + gap) / (2.0 - gap)}; }

TEST(SolverDecision, OpenCheckIterates) {
  const SolverDecision d = decide(open_check(), SolverConfig{}, StallState{});
  EXPECT_EQ(d.action, SolverAction::kIterate);
  EXPECT_EQ(d.stop, SolverStop::kNone);
  EXPECT_TRUE(d.status.is_ok());
  EXPECT_DOUBLE_EQ(d.stall.prev_gap, open_check().loss.relative_gap());
  EXPECT_EQ(d.stall.stalled_checks, 0);
}

TEST(SolverDecision, EachCaseStops) {
  const SolverConfig cfg;
  SolverCheck c = open_check();
  c.loss = {0.0, 5e-11};
  SolverDecision d = decide(c, cfg, StallState{});
  EXPECT_EQ(d.action, SolverAction::kStop);
  EXPECT_EQ(d.stop, SolverStop::kZeroLoss);
  EXPECT_TRUE(d.status.is_ok());

  c = open_check();
  c.loss = {0.0100, 0.0120};  // relative gap 0.18
  d = decide(c, cfg, StallState{});
  EXPECT_EQ(d.stop, SolverStop::kConverged);
  EXPECT_TRUE(d.status.is_ok());

  c = open_check();
  c.iterations = cfg.max_total_iterations;
  d = decide(c, cfg, StallState{});
  EXPECT_EQ(d.stop, SolverStop::kIterationBudget);
  EXPECT_EQ(d.status.category(), ErrorCategory::kResourceExhausted);
  EXPECT_EQ(d.status.diagnostics().message,
            "relative gap 0.666667 still above target 0.2 after 300000 iterations");

  c = open_check();
  c.cancelled = true;
  d = decide(c, cfg, StallState{});
  EXPECT_EQ(d.stop, SolverStop::kCancelled);
  EXPECT_EQ(d.status.diagnostics().message,
            "cancelled: relative gap 0.666667 still above target 0.2 after 32 iterations");
  EXPECT_EQ(d.status.diagnostics().invariant, "solve completes before cooperative cancellation");

  SolverConfig timed;
  timed.deadline_ms = 10;
  c = open_check();
  c.elapsed_ms = 9.99;
  EXPECT_EQ(decide(c, timed, StallState{}).action, SolverAction::kIterate);
  c.elapsed_ms = 10.0;
  d = decide(c, timed, StallState{});
  EXPECT_EQ(d.stop, SolverStop::kDeadlineExceeded);
  EXPECT_EQ(d.status.diagnostics().message,
            "deadline_exceeded: relative gap 0.666667 still above target 0.2 after 10 ms (32 "
            "iterations)");
  c.elapsed_ms = 1e9;  // no deadline: never this stop
  EXPECT_EQ(decide(c, cfg, StallState{}).action, SolverAction::kIterate);
}

TEST(SolverDecision, TwoCasesMetReturnTheEarlier) {
  // Each record meets one case and the next in the order of solver.hpp.
  SolverConfig cfg;
  cfg.deadline_ms = 1;
  const StallState stalled{open_check().loss.relative_gap(), 2};  // this check is the third

  SolverCheck c = open_check();
  c.low.finite = false;
  c.loss = {0.0, 0.0};  // zero loss too
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kGuardTripped);

  c = open_check();
  c.loss = {0.0, 5e-11};
  c.iterations = cfg.max_total_iterations;  // the iteration budget too
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kZeroLoss);

  c = open_check();
  c.loss = {0.0100, 0.0120};
  c.iterations = cfg.max_total_iterations;
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kConverged);

  c = open_check();
  c.iterations = cfg.max_total_iterations;
  c.cancelled = true;
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kIterationBudget);

  c = open_check();
  c.cancelled = true;
  c.elapsed_ms = 5.0;
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kCancelled);

  c = open_check();
  c.elapsed_ms = 5.0;
  c.bins = cfg.max_bins;  // and stalled at max_bins: the bin budget
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kDeadlineExceeded);

  c.elapsed_ms = 0.0;
  EXPECT_EQ(decide(c, cfg, stalled).stop, SolverStop::kBinBudget);
}

TEST(SolverDecision, GuardsNameTheirInvariants) {
  struct Case {
    void (*spoil)(SolverCheck&);
    const char* invariant;
    const char* message;
  };
  const Case cases[] = {
      {[](SolverCheck& c) { c.low.finite = false; }, "occupancy pmf entries are finite",
       "lower occupancy pmf contains NaN/Inf after convolution"},
      {[](SolverCheck& c) { c.high.min_entry = -2e-9; }, "occupancy pmf entries are non-negative",
       "upper occupancy pmf entry -2e-09 below -1e-09"},
      {[](SolverCheck& c) { c.low.mass_dev = 2e-6; }, "occupancy pmf conserves unit mass",
       "lower occupancy pmf mass drifted 2e-06 from 1 (tolerance 1e-06); the increment pmf "
       "leaks mass"},
      {[](SolverCheck& c) { c.loss.upper = std::numeric_limits<double>::infinity(); },
       "loss bounds are finite", "loss bracket [0.01, inf] is not finite"},
      {[](SolverCheck& c) { c.loss = {0.03, 0.02}; }, "lower bound <= upper bound (Prop. II.1)",
       "bracket inverted: lower 0.03 > upper 0.02"},
  };
  for (const Case& k : cases) {
    SolverCheck c = open_check();
    k.spoil(c);
    const SolverDecision d = decide(c, SolverConfig{}, StallState{});
    EXPECT_EQ(d.action, SolverAction::kStop) << k.invariant;
    EXPECT_EQ(d.stop, SolverStop::kGuardTripped) << k.invariant;
    EXPECT_EQ(d.status.category(), ErrorCategory::kNumericalGuard) << k.invariant;
    EXPECT_EQ(d.status.diagnostics().invariant, k.invariant);
    EXPECT_EQ(d.status.diagnostics().message, k.message);
    EXPECT_EQ(d.status.diagnostics().component, "queueing.solver");
  }
  // The lower chain's guard is read before the upper chain's, and both
  // before the bounds.
  SolverCheck c = open_check();
  c.high.finite = false;
  c.low.mass_dev = 1.0;
  c.loss = {0.03, 0.02};
  EXPECT_EQ(decide(c, SolverConfig{}, StallState{}).status.diagnostics().message,
            "lower occupancy pmf mass drifted 1 from 1 (tolerance 1e-06); the increment pmf "
            "leaks mass");
  // An inversion within 1e-9 of the larger bound is round-off, not a trip.
  c = open_check();
  c.loss = {0.02 * (1.0 + 0.5e-9), 0.02};
  EXPECT_NE(decide(c, SolverConfig{}, StallState{}).stop, SolverStop::kGuardTripped);
}

TEST(SolverDecision, StopsCarryTheCheckAndTheLastHealthyLevel) {
  // Every check before a stop passed the guards, so a guard trip's last
  // healthy level is the previous check's, and any other stop's is its own.
  SolverCheck c = open_check();
  c.iterations = 16;
  c.level_iterations = 16;
  c.low.finite = false;
  EXPECT_EQ(decide(c, SolverConfig{}, StallState{}).status.describe(),
            "[numerical-guard] queueing.solver: lower occupancy pmf contains NaN/Inf after "
            "convolution (invariant: occupancy pmf entries are finite; iteration 16; level 1; "
            "bins 128; last healthy level 0)");
  c.iterations = 80;
  c.level = 3;
  c.bins = 512;
  EXPECT_EQ(decide(c, SolverConfig{}, StallState{}).status.diagnostics().last_healthy_level, 2u);
  c.level_iterations = 32;
  EXPECT_EQ(decide(c, SolverConfig{}, StallState{}).status.diagnostics().last_healthy_level, 3u);

  c = open_check();
  c.level_iterations = 16;
  c.level = 3;
  c.cancelled = true;
  const SolverDecision cancelled = decide(c, SolverConfig{}, StallState{});
  const Diagnostics& d = cancelled.status.diagnostics();
  EXPECT_EQ(d.iteration, 32u);
  EXPECT_EQ(d.level, 3u);
  EXPECT_EQ(d.bins, 128u);
  EXPECT_EQ(d.last_healthy_level, 3u);
}

TEST(SolverDecision, PinnedRelativeGapRefinesOnTheFourthCheck) {
  // With lower << upper the relative gap sits near 2 however the upper
  // bound falls, so three checks of < 0.5% improvement refine: 64
  // iterations per level. Eight levels from 128 to 16384 bins are how a
  // pinned cell ends on the bin budget at iteration 512.
  const SolverConfig cfg;  // 128 .. 16384 bins
  SolverCheck c;
  c.bins = cfg.initial_bins;
  StallState stall;
  SolverDecision d;
  double upper = 1e-3;
  for (int check = 1; d.action != SolverAction::kStop; ++check) {
    ASSERT_LE(check, 64) << "never stopped";
    c.iterations += queueing::kCheckEvery;
    c.level_iterations += queueing::kCheckEvery;
    upper *= 0.9;  // falling by 10% a check, yet the relative gap barely moves
    c.loss = {1e-9, upper};
    d = decide(c, cfg, stall);
    if (d.action == SolverAction::kIterate) {
      EXPECT_LT(c.level_iterations, 64u) << "check " << check;
    } else if (d.action == SolverAction::kRefine) {
      EXPECT_EQ(c.level_iterations, 64u) << "check " << check;
      EXPECT_EQ(d.stall.stalled_checks, 0);
      EXPECT_TRUE(std::isinf(d.stall.prev_gap));
      ++c.level;
      c.bins *= 2;
      c.level_iterations = 0;
    }
    stall = d.stall;
  }
  EXPECT_EQ(d.stop, SolverStop::kBinBudget);
  EXPECT_EQ(c.iterations, 512u);
  EXPECT_EQ(c.level_iterations, 64u);
  EXPECT_NE(d.status.describe().find("at max_bins = 16384 (invariant: bracket reaches "
                                     "target_relative_gap within max_bins; iteration 512; level "
                                     "8; bins 16384; last healthy level 8)"),
            std::string::npos)
      << d.status.describe();
}

TEST(SolverDecision, SlowCreepKeepsResettingTheStallCount) {
  // A gap that creeps toward its limit and improves by >= 0.5% once in
  // every three checks never stalls: it stays at its level until the
  // per-level budget refines it.
  SolverConfig cfg;
  cfg.max_iterations_per_level = 30 * queueing::kCheckEvery;
  SolverCheck c = open_check();
  c.iterations = c.level_iterations = 0;
  StallState stall;
  double gap = 1.0;
  int slow_checks = 0;
  for (int check = 1; check <= 30; ++check) {
    c.iterations += queueing::kCheckEvery;
    c.level_iterations += queueing::kCheckEvery;
    gap *= check % 3 == 0 ? 0.99 : 0.999;
    c.loss = with_gap(gap);
    const SolverDecision d = decide(c, cfg, stall);
    slow_checks = check == 1 || check % 3 == 0 ? 0 : slow_checks + 1;
    EXPECT_EQ(d.stall.stalled_checks, slow_checks) << "check " << check;
    EXPECT_EQ(d.action, check < 30 ? SolverAction::kIterate : SolverAction::kRefine)
        << "check " << check;
    stall = d.stall;
  }
}

TEST(SolverDecision, PerLevelBudgetRefinesUntilMaxBins) {
  // A gap still improving fast refines only on the per-level budget; at
  // max_bins the same check stops on the bin budget instead.
  SolverConfig cfg;
  cfg.max_iterations_per_level = 48;
  cfg.max_bins = 512;
  SolverCheck c = open_check();
  c.level_iterations = 32;
  const StallState improving{1.0, 0};
  EXPECT_EQ(decide(c, cfg, improving).action, SolverAction::kIterate);
  c.level_iterations = 48;
  EXPECT_EQ(decide(c, cfg, improving).action, SolverAction::kRefine);
  c.bins = 256;  // 2 * 256 == max_bins: one more level fits
  EXPECT_EQ(decide(c, cfg, improving).action, SolverAction::kRefine);
  c.bins = 512;
  const SolverDecision d = decide(c, cfg, improving);
  EXPECT_EQ(d.stop, SolverStop::kBinBudget);
  EXPECT_EQ(d.status.diagnostics().invariant,
            "bracket reaches target_relative_gap within max_bins");
  EXPECT_EQ(d.status.diagnostics().message,
            "relative gap 0.666667 still above target 0.2 at max_bins = 512");
}

}  // namespace
