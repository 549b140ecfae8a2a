#include "queueing/solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/failpoint.hpp"
#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/special_functions.hpp"
#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace lrd::queueing {

namespace {

std::string format_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Dirac pmf over M+1 grid points with all mass at `index`.
std::vector<double> dirac(std::size_t points, std::size_t index) {
  std::vector<double> q(points, 0.0);
  q[index] = 1.0;
  return q;
}

/// Mean of an occupancy pmf over {0, d, ..., Md}.
double pmf_mean(const std::vector<double>& q, double step) {
  numerics::CompensatedSum acc;
  for (std::size_t j = 0; j < q.size(); ++j) acc.add(q[j] * static_cast<double>(j) * step);
  return acc.value();
}

/// Eq. 21 / 22 as differences of an increment ccdf sampled at 2M
/// consecutive grid points s[0..2M-1]: bin 0 lumps the mass below s[0]'s
/// point, bin 2M the mass at or beyond s[2M-1]'s. w_L takes Pr{W >= i d}
/// at i = -M+1..M, w_H takes Pr{W > i d} at i = -M..M-1; either way each
/// point is evaluated once and serves the two bins that share it as an
/// edge.
std::vector<double> pmf_from_ccdf(const double* s, std::size_t bins) {
  std::vector<double> w(2 * bins + 1);
  w[0] = 1.0 - s[0];
  for (std::size_t k = 1; k < 2 * bins; ++k) w[k] = s[k - 1] - s[k];
  w[2 * bins] = s[2 * bins - 1];
  for (double& p : w) p = std::max(p, 0.0);
  return w;
}

/// One chain's share of the fold step's post-pass over its next-state
/// pmf, entry by entry: the health scan of the pre-clamp value
/// (compensated mass of the finite entries, most negative entry,
/// finiteness), then the clamp of FFT round-off below zero and the
/// running total the renormalization divides by.
struct ChainScan {
  numerics::CompensatedSum mass;
  double min_entry = 0.0;
  bool finite = true;
  double total = 0.0;

  void visit(double& p) noexcept {
    if (std::isfinite(p)) {
      mass.add(p);
      if (p < min_entry) min_entry = p;
    } else {
      finite = false;
    }
    if (p < 0.0) p = 0.0;
    total += p;
  }

  /// Merges this step into the chain's health and returns the factor
  /// that renormalizes the clamped pmf to mass one. Without positive mass
  /// the factor is 1, and x * 1 is x for every double, so the pmf stays as
  /// clamped.
  double finish(StepHealth& h) const noexcept {
    if (!finite) h.finite = false;
    h.mass_dev = std::max(h.mass_dev, std::abs(mass.value() - 1.0));
    h.min_entry = std::min(h.min_entry, min_entry);
    return total > 0.0 ? 1.0 / total : 1.0;
  }
};

lrd::Status guard_failure(const char* invariant, std::string message) {
  return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kNumericalGuard,
                                                    "queueing.solver", invariant,
                                                    std::move(message)));
}

/// Evaluates the per-step guardrails for one chain's accumulated health.
lrd::Status step_guard(const StepHealth& h, const char* chain) {
  if (!h.finite)
    return guard_failure("occupancy pmf entries are finite",
                         std::string(chain) + " occupancy pmf contains NaN/Inf after convolution");
  if (h.min_entry < -kNegativeTolerance)
    return guard_failure("occupancy pmf entries are non-negative",
                         std::string(chain) + " occupancy pmf entry " + format_g(h.min_entry) +
                             " below -" + format_g(kNegativeTolerance));
  if (h.mass_dev > kMassTolerance)
    return guard_failure("occupancy pmf conserves unit mass",
                         std::string(chain) + " occupancy pmf mass drifted " +
                             format_g(h.mass_dev) + " from 1 (tolerance " +
                             format_g(kMassTolerance) + "); the increment pmf leaks mass");
  return lrd::Status::ok();
}

}  // namespace

DualFoldEngine::Tails DualFoldEngine::tails(const std::vector<double>& w, std::size_t bins) {
  if (bins == 0) throw std::invalid_argument("DualFoldEngine: bins must be >= 1");
  if (w.size() != 2 * bins + 1)
    throw std::invalid_argument("DualFoldEngine: increment pmfs must have 2 * bins + 1 entries");
  // Occupancy j plus increment (i - M) lands at or below 0 iff i <= M - j
  // and at or above B iff i >= 2M - j: a compensated running sum from
  // each end of w gives both tails for every j.
  Tails t{std::vector<double>(bins + 1), std::vector<double>(bins + 1)};
  numerics::CompensatedSum low, high;
  for (std::size_t j = bins + 1; j-- > 0;) {
    low.add(w[bins - j]);
    t.zero[j] = low.value();
  }
  for (std::size_t j = 0; j <= bins; ++j) {
    high.add(w[2 * bins - j]);
    t.full[j] = high.value();
  }
  return t;
}

DualFoldEngine::DualFoldEngine(std::vector<double> lower_pmf, std::vector<double> upper_pmf,
                               std::size_t bins)
    : bins_(bins),
      low_tails_(tails(lower_pmf, bins)),
      high_tails_(tails(upper_pmf, bins)),
      conv_(std::move(lower_pmf), std::move(upper_pmf), numerics::next_pow2(2 * bins)),
      ws_(conv_.make_workspace()),
      next_low_(bins + 1),
      next_high_(bins + 1) {}

void DualFoldEngine::step(std::vector<double>& q_low, std::vector<double>& q_high,
                          StepHealth& low_health, StepHealth& high_health) {
  if (q_low.size() != bins_ + 1 || q_high.size() != bins_ + 1)
    throw std::invalid_argument("DualFoldEngine::step: occupancy pmfs must have bins + 1 entries");
  // Eq. 20: entry k of the circular output is occupancy (k - M) d. Its
  // un-aliased interior M + 1 <= k <= 2M - 1 is next[1..M-1], written in
  // place; everything at or below 0 folds into the empty-buffer atom and
  // everything at or above B into the full-buffer atom, both taken
  // exactly from q: four compensated dot products with the tails, in one
  // pass over both chains.
  conv_.convolve_into(q_low.data(), q_high.data(), bins_ + 1, ws_, bins_ + 1, bins_ - 1,
                      next_low_.data() + 1, next_high_.data() + 1);
  numerics::CompensatedSum low_zero, low_full, high_zero, high_full;
  for (std::size_t j = 0; j <= bins_; ++j) {
    low_zero.add(q_low[j] * low_tails_.zero[j]);
    low_full.add(q_low[j] * low_tails_.full[j]);
    high_zero.add(q_high[j] * high_tails_.zero[j]);
    high_full.add(q_high[j] * high_tails_.full[j]);
  }
  next_low_[0] = low_zero.value();
  next_low_[bins_] = low_full.value();
  next_high_[0] = high_zero.value();
  next_high_[bins_] = high_full.value();
  // One pass scans both chains' health and clamps them, a second one
  // renormalizes both: the guardrails see the pmfs before the clamp.
  ChainScan low, high;
  for (std::size_t j = 0; j <= bins_; ++j) {
    low.visit(next_low_[j]);
    high.visit(next_high_[j]);
  }
  const double inv_low = low.finish(low_health);
  const double inv_high = high.finish(high_health);
  for (std::size_t j = 0; j <= bins_; ++j) {
    next_low_[j] *= inv_low;
    next_high_[j] *= inv_high;
  }
  q_low.swap(next_low_);
  q_high.swap(next_high_);
}

lrd::Status SolverConfig::validate() const {
  auto bad = [](std::string invariant, std::string message) {
    return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                      "queueing.solver_config",
                                                      std::move(invariant), std::move(message)));
  };
  if (initial_bins < 2)
    return bad("initial_bins >= 2", "initial_bins = " + std::to_string(initial_bins));
  if (max_bins < initial_bins)
    return bad("max_bins >= initial_bins", "max_bins = " + std::to_string(max_bins) +
                                               " < initial_bins = " + std::to_string(initial_bins));
  if (!(target_relative_gap > 0.0) || !std::isfinite(target_relative_gap))
    return bad("target_relative_gap in (0, inf)",
               "target_relative_gap = " + format_g(target_relative_gap));
  if (max_iterations_per_level == 0)
    return bad("max_iterations_per_level >= 1", "max_iterations_per_level = 0");
  if (max_total_iterations == 0) return bad("max_total_iterations >= 1", "max_total_iterations = 0");
  return lrd::Status::ok();
}

const char* solver_stop_name(SolverStop stop) noexcept {
  switch (stop) {
    case SolverStop::kNone: return "not-run";
    case SolverStop::kConverged: return "converged";
    case SolverStop::kZeroLoss: return "zero-loss";
    case SolverStop::kIterationBudget: return "iteration-budget-exhausted";
    case SolverStop::kBinBudget: return "bin-budget-exhausted";
    case SolverStop::kGuardTripped: return "guard-tripped";
    case SolverStop::kDeadlineExceeded: return "deadline-exceeded";
    case SolverStop::kCancelled: return "cancelled";
    case SolverStop::kInvalidInput: return "invalid-input";
  }
  return "unknown";
}

FluidQueueSolver::FluidQueueSolver(dist::Marginal marginal, dist::EpochPtr epochs,
                                   double service_rate, double buffer)
    : marginal_(std::move(marginal)),
      epochs_(std::move(epochs)),
      service_rate_(service_rate),
      buffer_(buffer) {
  auto bad = [](std::string invariant, std::string message) {
    return lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                                  "queueing.solver", std::move(invariant),
                                                  std::move(message)));
  };
  if (!epochs_) throw bad("epoch distribution is non-null", "null epoch distribution");
  if (!(service_rate > 0.0) || !std::isfinite(service_rate))
    throw bad("service rate is finite and > 0", "service rate = " + format_g(service_rate));
  if (!(buffer > 0.0) || !std::isfinite(buffer))
    throw bad("buffer is finite and > 0", "buffer = " + format_g(buffer));
}

template <FluidQueueSolver::Sides sides>
FluidQueueSolver::IncrementCcdf FluidQueueSolver::increment_ccdf(double w) const {
  // W = T (lambda - c), summed over the rates in marginal order: a rate
  // above c gives Pr{T > t} / Pr{T >= t} at t = w / (lambda - c), a rate
  // below c gives 1 - Pr{T >= t} / 1 - Pr{T > t}, and a rate equal to c
  // adds a step at w = 0. Only the epoch ccdfs the wanted sides read are
  // evaluated.
  constexpr bool want_open = sides != Sides::kClosed;
  constexpr bool want_closed = sides != Sides::kOpen;
  const auto& rates = marginal_.rates();
  const auto& probs = marginal_.probs();
  IncrementCcdf s;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const double dr = rates[i] - service_rate_;
    if (dr == 0.0) {
      if (want_open && w < 0.0) s.open += probs[i];
      if (want_closed && w <= 0.0) s.closed += probs[i];
      continue;
    }
    const double t = w / dr;
    double t_open = 0.0, t_closed = 0.0;  // Pr{T > t}, Pr{T >= t}
    if constexpr (sides == Sides::kBoth) {
      epochs_->ccdf_both(t, t_open, t_closed);
    } else if ((sides == Sides::kOpen) == (dr > 0.0)) {
      t_open = epochs_->ccdf_open(t);
    } else {
      t_closed = epochs_->ccdf_closed(t);
    }
    if (dr > 0.0) {
      if (want_open) s.open += probs[i] * t_open;
      if (want_closed) s.closed += probs[i] * t_closed;
    } else {
      if (want_open) s.open += probs[i] * (1.0 - t_closed);
      if (want_closed) s.closed += probs[i] * (1.0 - t_open);
    }
  }
  return s;
}

std::vector<double> FluidQueueSolver::increment_pmf_lower(std::size_t bins) const {
  if (bins == 0) throw std::invalid_argument("increment_pmf_lower: bins must be >= 1");
  const numerics::Grid grid(buffer_, bins);
  const double d = grid.step();
  const auto m = static_cast<double>(bins);
  // Eq. 21: i = -M lumps everything below (-M+1)d; i = M lumps [Md, inf).
  std::vector<double> closed(2 * bins);  // Pr{W >= i d}, i = -M+1..M
  for (std::size_t j = 0; j < 2 * bins; ++j)
    closed[j] = increment_ccdf<Sides::kClosed>((static_cast<double>(j + 1) - m) * d).closed;
  return pmf_from_ccdf(closed.data(), bins);
}

std::vector<double> FluidQueueSolver::increment_pmf_upper(std::size_t bins) const {
  if (bins == 0) throw std::invalid_argument("increment_pmf_upper: bins must be >= 1");
  const numerics::Grid grid(buffer_, bins);
  const double d = grid.step();
  const auto m = static_cast<double>(bins);
  // Eq. 22: i = -M lumps (-inf, -Md]; i = M lumps ((M-1)d, inf).
  std::vector<double> open(2 * bins);  // Pr{W > i d}, i = -M..M-1
  for (std::size_t j = 0; j < 2 * bins; ++j)
    open[j] = increment_ccdf<Sides::kOpen>((static_cast<double>(j) - m) * d).open;
  return pmf_from_ccdf(open.data(), bins);
}

double FluidQueueSolver::overflow_kernel(double x) const {
  return expected_loss_given_occupancy(marginal_, *epochs_, service_rate_, buffer_,
                                       std::min(x, buffer_));
}

FluidQueueSolver::Level FluidQueueSolver::build_level(std::size_t bins, const Level* coarse) const {
  const numerics::Grid grid(buffer_, bins);
  const double d = grid.step();
  const auto m = static_cast<double>(bins);
  // Refinement carry-over: with d = 2 d' exactly, fine point 2j d' is
  // coarse point j d bit for bit, so every even fine entry is a coarse
  // entry and only the odd ones are evaluated.
  const bool carry = coarse != nullptr && 2 * coarse->grid.bins() == bins &&
                     2.0 * d == coarse->grid.step();
  std::vector<double> open(2 * bins + 1), closed(2 * bins + 1);
  for (std::size_t k = 0; k <= 2 * bins; ++k) {
    if (carry && k % 2 == 0) {
      open[k] = coarse->ccdf_open[k / 2];
      closed[k] = coarse->ccdf_closed[k / 2];
    } else {
      const IncrementCcdf s = increment_ccdf<Sides::kBoth>((static_cast<double>(k) - m) * d);
      open[k] = s.open;
      closed[k] = s.closed;
    }
  }
  std::vector<double> kernel(bins + 1);
  for (std::size_t j = 0; j <= bins; ++j)
    kernel[j] = carry && j % 2 == 0 ? coarse->kernel[j / 2] : overflow_kernel(grid.value(j));
  DualFoldEngine engine(pmf_from_ccdf(closed.data() + 1, bins), pmf_from_ccdf(open.data(), bins),
                        bins);
  return Level{grid, std::move(engine), std::move(kernel), std::move(open), std::move(closed)};
}

double FluidQueueSolver::loss_from_pmf(const std::vector<double>& q,
                                       const std::vector<double>& kernel) const {
  numerics::CompensatedSum acc;
  for (std::size_t j = 0; j < q.size(); ++j) acc.add(q[j] * kernel[j]);
  return acc.value() / expected_work_per_epoch(marginal_, *epochs_);
}

FluidQueueSolver::LevelSnapshot FluidQueueSolver::iterate_fixed(std::size_t bins,
                                                                std::size_t iterations) const {
  if (bins == 0)
    throw lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                                 "queueing.solver", "bins >= 1",
                                                 "iterate_fixed: bins = 0"));
  Level level = build_level(bins);
  LevelSnapshot snap;
  snap.bins = bins;
  snap.q_lower = dirac(bins + 1, 0);
  snap.q_upper = dirac(bins + 1, bins);
  StepHealth ignored_low, ignored_high;
  for (std::size_t n = 0; n < iterations; ++n)
    level.engine.step(snap.q_lower, snap.q_upper, ignored_low, ignored_high);
  snap.loss.lower = loss_from_pmf(snap.q_lower, level.kernel);
  snap.loss.upper = loss_from_pmf(snap.q_upper, level.kernel);
  return snap;
}

SolverResult FluidQueueSolver::solve(const SolverConfig& cfg) const {
  if (auto st = cfg.validate(); !st.is_ok()) throw lrd::ConfigError(st.diagnostics());

  // Every solve runs under a correlation scope: a serve worker or CLI
  // run already installed one, and a standalone solve (tests, figure
  // scripts) mints its own so its level events still join up in
  // `lrdq_doctor query`.
  const obs::QueryId ambient_qid = obs::current_query_id();
  obs::QueryScope query_scope(ambient_qid != 0 ? ambient_qid : obs::mint_query_id());

  obs::Span solve_span("solver.solve", "solver");
  const obs::SteadyTime solve_start = obs::now();

  SolverResult result;

  // Note: utilization >= 1 is NOT rejected here. The finite-buffer
  // recursion is stable at any load (Q lives on [0, B]); overload just
  // means heavy loss, and the bracket converges to it (e.g. exactly
  // (r - c)/r for a constant rate r > c). The paper's parameterization,
  // where rho in (0, 1) defines c, enforces that range in
  // ModelConfig::validate / ModelSweepConfig::validate instead.

  std::size_t bins = cfg.initial_bins;
  core::failpoint_hit("solve.level");
  obs::flight::record(obs::flight::EventKind::kSolveLevel, "solve", 1, bins);
  // Level-boundary profile markers: a sub-interval solve would be
  // invisible to the statistical sampler, so each level stamps at
  // least one sample carrying this query's id (no-op when the
  // profiler is off — one relaxed load).
  obs::profiler::sample_now();
  Level level = build_level(bins);
  result.levels = 1;

  std::vector<double> q_low = dirac(bins + 1, 0);
  std::vector<double> q_high = dirac(bins + 1, bins);

  // Rollback point for graceful degradation: the most recent state that
  // passed every health check.
  struct Healthy {
    std::vector<double> q_low, q_high;
    LossBounds loss;
    std::size_t bins = 0;
    std::size_t levels = 0;
    bool valid = false;
  } healthy;

  auto budget_exhausted = [&](const char* invariant, std::string message) {
    auto d = lrd::make_diagnostics(lrd::ErrorCategory::kResourceExhausted, "queueing.solver",
                                   invariant, std::move(message));
    d.iteration = result.iterations;
    d.level = result.levels;
    d.bins = bins;
    d.last_healthy_level = result.last_healthy_level;
    result.status = lrd::Status::failure(std::move(d));
  };

  double prev_gap = std::numeric_limits<double>::infinity();
  std::size_t level_iterations = 0;
  int stalled_checks = 0;

  // Telemetry accrues per level and is finalized on every level
  // transition and on every exit path, so the audit trail always covers
  // the level the solver was in when it stopped.
  obs::LevelTelemetry level_tel;
  obs::SteadyTime level_start = solve_start;
  level_tel.bins = bins;
  auto finalize_level = [&] {
    if (!cfg.collect_telemetry) return;
    level_tel.iterations = level_iterations;
    level_tel.bracket_lower = result.loss.lower;
    level_tel.bracket_upper = result.loss.upper;
    double sup_gap = 0.0;
    const std::size_t n = std::min(q_low.size(), q_high.size());
    for (std::size_t j = 0; j < n; ++j) sup_gap = std::max(sup_gap, std::abs(q_high[j] - q_low[j]));
    level_tel.occupancy_gap = sup_gap;
    level_tel.wall_seconds = obs::seconds_since(level_start);
    result.telemetry.levels.push_back(level_tel);
  };

  while (true) {
    StepHealth low_health, high_health;
    for (std::size_t k = 0; k < kCheckEvery; ++k) {
      level.engine.step(q_low, q_high, low_health, high_health);
      ++result.iterations;
      ++level_iterations;
    }

    if (cfg.collect_telemetry)
      level_tel.mass_drift =
          std::max({level_tel.mass_drift, low_health.mass_dev, high_health.mass_dev});

    lrd::Status guard = step_guard(low_health, "lower");
    if (guard.is_ok()) guard = step_guard(high_health, "upper");

    if (guard.is_ok()) {
      result.loss.lower = loss_from_pmf(q_low, level.kernel);
      result.loss.upper = loss_from_pmf(q_high, level.kernel);
      if (!std::isfinite(result.loss.lower) || !std::isfinite(result.loss.upper)) {
        guard = guard_failure("loss bounds are finite",
                              "loss bracket [" + format_g(result.loss.lower) + ", " +
                                  format_g(result.loss.upper) + "] is not finite");
      } else if (result.loss.lower - result.loss.upper >
                 kBracketTolerance * std::max(result.loss.lower, result.loss.upper)) {
        guard = guard_failure("lower bound <= upper bound (Prop. II.1)",
                              "bracket inverted: lower " + format_g(result.loss.lower) +
                                  " > upper " + format_g(result.loss.upper));
      }
    }

    if (!guard.is_ok()) {
      // Graceful degradation: report the last healthy state (whose bounds
      // still bracket the true loss by monotonicity) instead of garbage.
      auto d = guard.diagnostics();
      d.iteration = result.iterations;
      d.level = result.levels;
      d.bins = bins;
      d.last_healthy_level = healthy.valid ? healthy.levels : 0;
      result.status = lrd::Status::failure(std::move(d));
      result.stop = SolverStop::kGuardTripped;
      result.converged = false;
      result.zero_loss = false;
      // Record the failing level's state before rolling back so the
      // telemetry shows what tripped the guard (a non-finite pmf yields
      // occupancy_gap = NaN, serialized as null).
      finalize_level();
      if (healthy.valid) {
        result.loss = healthy.loss;
        q_low = std::move(healthy.q_low);
        q_high = std::move(healthy.q_high);
        bins = healthy.bins;
      } else {
        result.loss = LossBounds{0.0, 1.0};  // vacuous but valid bracket
        q_low.clear();
        q_high.clear();
      }
      break;
    }

    // This state passed every guardrail: make it the new rollback point.
    healthy.q_low = q_low;
    healthy.q_high = q_high;
    healthy.loss = result.loss;
    healthy.bins = bins;
    healthy.levels = result.levels;
    healthy.valid = true;
    result.last_healthy_level = result.levels;

    if (result.loss.upper < kZeroLossThreshold) {
      result.zero_loss = true;
      result.converged = true;
      result.stop = SolverStop::kZeroLoss;
      finalize_level();
      break;
    }
    const double gap = result.loss.relative_gap();
    if (gap <= cfg.target_relative_gap) {
      result.converged = true;
      result.stop = SolverStop::kConverged;
      finalize_level();
      break;
    }
    if (result.iterations >= cfg.max_total_iterations) {
      result.stop = SolverStop::kIterationBudget;
      budget_exhausted("bracket reaches target_relative_gap within max_total_iterations",
                       "relative gap " + format_g(gap) + " still above target " +
                           format_g(cfg.target_relative_gap) + " after " +
                           std::to_string(result.iterations) + " iterations");
      finalize_level();
      break;
    }
    // Deadline / cancellation: polled here, at the check-block boundary,
    // so the bounds just evaluated above are always the reported ones —
    // a wide but valid bracket (Prop. II.1 holds at any n), never a hang.
    if (cfg.cancellation != nullptr && cfg.cancellation->cancelled()) {
      result.stop = SolverStop::kCancelled;
      budget_exhausted("solve completes before cooperative cancellation",
                       "cancelled: relative gap " + format_g(gap) + " still above target " +
                           format_g(cfg.target_relative_gap) + " after " +
                           std::to_string(result.iterations) + " iterations");
      finalize_level();
      break;
    }
    if (cfg.deadline_ms > 0 &&
        obs::seconds_since(solve_start) * 1000.0 >= static_cast<double>(cfg.deadline_ms)) {
      result.stop = SolverStop::kDeadlineExceeded;
      budget_exhausted("bracket reaches target_relative_gap within deadline_ms",
                       "deadline_exceeded: relative gap " + format_g(gap) +
                           " still above target " + format_g(cfg.target_relative_gap) +
                           " after " + std::to_string(cfg.deadline_ms) + " ms (" +
                           std::to_string(result.iterations) + " iterations)");
      finalize_level();
      break;
    }

    // Declare a stall only after several consecutive low-improvement
    // checks: the gap of a slowly mixing chain shrinks steadily but
    // slowly, and a single noisy check must not trigger refinement.
    if (std::isfinite(prev_gap) && (prev_gap - gap) < kStallImprovement * prev_gap) {
      ++stalled_checks;
    } else {
      stalled_checks = 0;
    }
    const bool stalled = stalled_checks >= 3;
    const bool level_exhausted = level_iterations >= cfg.max_iterations_per_level;
    prev_gap = gap;

    if (stalled || level_exhausted) {
      if (bins * 2 > cfg.max_bins) {
        // Cannot refine; report the best (still valid) bracket.
        result.stop = SolverStop::kBinBudget;
        budget_exhausted("bracket reaches target_relative_gap within max_bins",
                         "relative gap " + format_g(gap) + " still above target " +
                             format_g(cfg.target_relative_gap) + " at max_bins = " +
                             std::to_string(cfg.max_bins));
        finalize_level();
        break;
      }
      // Footnote 3: double M and re-seed the fine recursion from the
      // current coarse distributions (grid point j d maps to 2j (d/2)).
      finalize_level();
      core::failpoint_hit("solve.level");
      obs::flight::record(obs::flight::EventKind::kSolveLevel, "solve", result.levels + 1,
                          bins * 2);
      obs::profiler::sample_now();
      const std::size_t fine = bins * 2;
      std::vector<double> ql(fine + 1, 0.0), qh(fine + 1, 0.0);
      for (std::size_t j = 0; j <= bins; ++j) {
        ql[2 * j] = q_low[j];
        qh[2 * j] = q_high[j];
      }
      bins = fine;
      // The fine level is built from the coarse one before it replaces it.
      level = build_level(bins, &level);
      q_low = std::move(ql);
      q_high = std::move(qh);
      ++result.levels;
      level_iterations = 0;
      stalled_checks = 0;
      prev_gap = std::numeric_limits<double>::infinity();
      level_tel = obs::LevelTelemetry{};
      level_tel.bins = bins;
      level_start = obs::now();
      obs::instant("solver.refine", "solver", "bins", bins);
    }
  }

  result.final_bins = bins;
  result.occupancy_lower = std::move(q_low);
  result.occupancy_upper = std::move(q_high);
  if (!result.occupancy_lower.empty() && !result.occupancy_upper.empty()) {
    const double step = buffer_ / static_cast<double>(bins);
    result.mean_queue_lower = pmf_mean(result.occupancy_lower, step);
    result.mean_queue_upper = pmf_mean(result.occupancy_upper, step);
  } else {
    // No healthy state survived: report the vacuous occupancy bracket.
    result.mean_queue_lower = 0.0;
    result.mean_queue_upper = buffer_;
  }

  if (cfg.collect_telemetry) result.telemetry.total_seconds = obs::seconds_since(solve_start);
  if constexpr (obs::kObsEnabled) {
    auto& reg = obs::Registry::global();
    static obs::Counter& solves =
        reg.counter("lrd_solver_solves_total", "Fluid-queue solves completed (any stop reason)");
    static obs::Counter& iters =
        reg.counter("lrd_solver_iterations_total", "Solver iterations (epochs) across all solves");
    static obs::Counter& guard_trips = reg.counter(
        "lrd_solver_guard_trips_total", "Solves ended by a numerical-health guard trip");
    static obs::Counter& deadline_exceeded = reg.counter(
        "lrd_solver_deadline_exceeded_total",
        "Solves ended by the deadline_ms wall-clock budget (valid but wide bracket)");
    static obs::Histogram& seconds =
        reg.histogram("lrd_solver_solve_seconds", "Wall time per fluid-queue solve");
    solves.inc();
    iters.inc(result.iterations);
    if (result.stop == SolverStop::kGuardTripped) guard_trips.inc();
    if (result.stop == SolverStop::kDeadlineExceeded) deadline_exceeded.inc();
    seconds.observe(obs::seconds_since(solve_start));
    if (result.stop == SolverStop::kDeadlineExceeded)
      obs::flight::record(obs::flight::EventKind::kDeadlineExceeded, "solve", 0, 0,
                          cfg.deadline_ms);
    obs::flight::record(obs::flight::EventKind::kSolveFinish, solver_stop_name(result.stop),
                        result.iterations, result.final_bins,
                        obs::seconds_since(solve_start) * 1e3);
    obs::profiler::sample_now();
    solve_span.annotate("bins", result.final_bins, "iterations", result.iterations, "levels",
                        result.levels, "stop", static_cast<std::int64_t>(result.stop));
  }
  return result;
}

}  // namespace lrd::queueing
