#include "queueing/solver.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/failpoint.hpp"
#include "numerics/convolution.hpp"
#include "numerics/fft.hpp"
#include "numerics/simd.hpp"
#include "numerics/special_functions.hpp"
#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/flight.hpp"
#include "obs/fmt.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace lrd::queueing {

namespace {

/// Dirac pmf over M+1 grid points with all mass at `index`.
std::vector<double> dirac(std::size_t points, std::size_t index) {
  std::vector<double> q(points, 0.0);
  q[index] = 1.0;
  return q;
}

/// Footnote 3's re-seed: a coarse pmf on the grid of twice its bins,
/// grid point j d at 2j (d/2).
std::vector<double> refine_pmf(const std::vector<double>& q) {
  std::vector<double> fine(2 * q.size() - 1, 0.0);
  for (std::size_t j = 0; j < q.size(); ++j) fine[2 * j] = q[j];
  return fine;
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

/// Merges one chain's scan of a fold step into the chain's health and
/// returns the factor that renormalizes the clamped pmf to mass one.
/// Without positive mass the factor is 1, and x * 1 is x for every
/// double, so the pmf stays as clamped.
double merge_scan(const numerics::simd::ChainScan& scan, StepHealth& h) noexcept {
  if (!scan.finite) h.finite = false;
  h.mass_dev = std::max(h.mass_dev, std::abs(scan.mass - 1.0));
  h.min_entry = std::min(h.min_entry, scan.min_entry);
  return scan.total > 0.0 ? 1.0 / scan.total : 1.0;
}

/// A guard's violated invariant and its message; none when it held.
struct Violation {
  const char* invariant = nullptr;
  std::string message;
  explicit operator bool() const noexcept { return invariant != nullptr; }
};

/// The per-step guardrails for one chain's health over a check block.
Violation step_guard(const StepHealth& h, const char* chain) {
  if (!h.finite)
    return {"occupancy pmf entries are finite",
            obs::fmt("%s occupancy pmf contains NaN/Inf after convolution", chain)};
  if (h.min_entry < -kNegativeTolerance)
    return {"occupancy pmf entries are non-negative",
            obs::fmt("%s occupancy pmf entry %g below -%g", chain, h.min_entry,
                     kNegativeTolerance)};
  if (h.mass_dev > kMassTolerance)
    return {"occupancy pmf conserves unit mass",
            obs::fmt("%s occupancy pmf mass drifted %g from 1 (tolerance %g); the increment pmf "
                     "leaks mass",
                     chain, h.mass_dev, kMassTolerance)};
  return {};
}

/// Case 1 of decide(): the step guards, then the finite and
/// inverted-bracket guards on the loss bounds.
Violation guard(const SolverCheck& c) {
  if (Violation v = step_guard(c.low, "lower")) return v;
  if (Violation v = step_guard(c.high, "upper")) return v;
  const LossBounds& l = c.loss;
  if (!std::isfinite(l.lower) || !std::isfinite(l.upper))
    return {"loss bounds are finite",
            obs::fmt("loss bracket [%g, %g] is not finite", l.lower, l.upper)};
  if (l.lower - l.upper > kBracketTolerance * std::max(l.lower, l.upper))
    return {"lower bound <= upper bound (Prop. II.1)",
            obs::fmt("bracket inverted: lower %g > upper %g", l.lower, l.upper)};
  return {};
}

/// The invariant and message of each stop short of the target: how far
/// the bracket was from it, and which budget ran out.
Violation short_of_target(SolverStop stop, const SolverCheck& c, const SolverConfig& cfg) {
  const std::string gap = obs::fmt("relative gap %g still above target %g", c.loss.relative_gap(),
                                   cfg.target_relative_gap);
  switch (stop) {
    case SolverStop::kIterationBudget:
      return {"bracket reaches target_relative_gap within max_total_iterations",
              obs::fmt("%s after %zu iterations", gap.c_str(), c.iterations)};
    case SolverStop::kCancelled:
      return {"solve completes before cooperative cancellation",
              obs::fmt("cancelled: %s after %zu iterations", gap.c_str(), c.iterations)};
    case SolverStop::kDeadlineExceeded:
      return {"bracket reaches target_relative_gap within deadline_ms",
              obs::fmt("deadline_exceeded: %s after %zu ms (%zu iterations)", gap.c_str(),
                       cfg.deadline_ms, c.iterations)};
    default:  // kBinBudget
      return {"bracket reaches target_relative_gap within max_bins",
              obs::fmt("%s at max_bins = %zu", gap.c_str(), cfg.max_bins)};
  }
}

/// Every check before a stop passed the guards, so a guard trip's last
/// healthy level is the previous check's: the level before at a level's
/// first check (0 at level 1), else this one.
std::size_t last_healthy_level(const SolverCheck& c, SolverStop stop) {
  return stop == SolverStop::kGuardTripped && c.level_iterations <= kCheckEvery ? c.level - 1
                                                                                 : c.level;
}

/// The finished solve's metrics, closing flight events, profiler sample and span args.
void publish(const SolverResult& result, const SolverConfig& cfg, obs::SteadyTime solve_start,
             obs::Span& solve_span) {
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
}

}  // namespace

std::vector<double> DualFoldEngine::tails(const std::vector<double>& lower_pmf,
                                          const std::vector<double>& upper_pmf,
                                          std::size_t bins) {
  if (bins == 0) throw std::invalid_argument("DualFoldEngine: bins must be >= 1");
  if (lower_pmf.size() != 2 * bins + 1 || upper_pmf.size() != 2 * bins + 1)
    throw std::invalid_argument("DualFoldEngine: increment pmfs must have 2 * bins + 1 entries");
  // Occupancy j plus increment (i - M) lands at or below 0 iff i <= M - j
  // and at or above B iff i >= 2M - j: a compensated running sum from
  // each end of w gives both tails for every j.
  std::vector<double> t(4 * (bins + 1));
  for (std::size_t chain = 0; chain < 2; ++chain) {
    const std::vector<double>& w = chain == 0 ? lower_pmf : upper_pmf;
    numerics::CompensatedSum zero, full;
    for (std::size_t j = bins + 1; j-- > 0;) {
      zero.add(w[bins - j]);
      t[4 * j + chain] = zero.value();
    }
    for (std::size_t j = 0; j <= bins; ++j) {
      full.add(w[2 * bins - j]);
      t[4 * j + 2 + chain] = full.value();
    }
  }
  return t;
}

DualFoldEngine::DualFoldEngine(std::vector<double> lower_pmf, std::vector<double> upper_pmf,
                               std::size_t bins)
    : bins_(bins),
      tails_(tails(lower_pmf, upper_pmf, bins)),
      conv_(std::move(lower_pmf), std::move(upper_pmf), numerics::next_pow2(2 * bins)),
      ws_(conv_.make_workspace()),
      next_low_(bins + 1),
      next_high_(bins + 1) {}

void DualFoldEngine::step(std::vector<double>& q_low, std::vector<double>& q_high,
                          StepHealth& low_health, StepHealth& high_health) {
  if (q_low.size() != bins_ + 1 || q_high.size() != bins_ + 1)
    throw std::invalid_argument("DualFoldEngine::step: occupancy pmfs must have bins + 1 entries");
  // Pack pass: both chains ride one transform, point j of the pair at its
  // bit-reversed position in a zeroed buffer. Eq. 20's boundary atoms
  // never touch the transform: everything at or below 0 folds into the
  // empty-buffer atom and everything at or above B into the full-buffer
  // atom, both taken exactly from q by four compensated dot products
  // with the tails, in the same pass.
  const numerics::simd::FftKernels& kernels = numerics::simd::active_fft_kernels();
  const std::size_t n = conv_.size();
  std::complex<double>* x = ws_.freq.data();
  std::fill(x, x + n, std::complex<double>{});
  const numerics::simd::FoldAtoms atoms = kernels.fold_pack(
      q_low.data(), q_high.data(), tails_.data(), conv_.bitrev(), bins_ + 1, x);
  const std::complex<double>* out = conv_.round_trip(ws_);
  // Scan pass, in j order with the atoms at 0 and M: entry k of the
  // circular output is occupancy (k - M) d, and its un-aliased interior
  // M + 1 <= k <= 2M - 1 is next[1..M-1], scaled by 1/n as it is read.
  // Each entry's health is scanned before the clamp, so the guardrails
  // see the pmfs as the transform left them.
  numerics::simd::ChainScan low, high;
  kernels.fold_scan(atoms, out + bins_ + 1, bins_ - 1, 1.0 / static_cast<double>(n),
                    next_low_.data(), next_high_.data(), low, high);
  const double inv_low = merge_scan(low, low_health);
  const double inv_high = merge_scan(high, high_health);
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
               obs::fmt("target_relative_gap = %g", target_relative_gap));
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
  }
  return "unknown";
}

SolverDecision decide(const SolverCheck& c, const SolverConfig& cfg, StallState stall) {
  // Every stop but zero loss and convergence carries a diagnostic with
  // the check's context.
  auto stop = [&](SolverStop why, lrd::ErrorCategory category, Violation v) {
    auto d = lrd::make_diagnostics(category, "queueing.solver", v.invariant, std::move(v.message));
    d.iteration = c.iterations;
    d.level = c.level;
    d.bins = c.bins;
    d.last_healthy_level = last_healthy_level(c, why);
    return SolverDecision{SolverAction::kStop, why, lrd::Status::failure(std::move(d)), {}};
  };
  auto short_stop = [&](SolverStop why) {
    return stop(why, lrd::ErrorCategory::kResourceExhausted, short_of_target(why, c, cfg));
  };
  if (Violation v = guard(c))
    return stop(SolverStop::kGuardTripped, lrd::ErrorCategory::kNumericalGuard, std::move(v));
  if (c.loss.upper < kZeroLossThreshold)
    return {SolverAction::kStop, SolverStop::kZeroLoss, {}, {}};
  const double gap = c.loss.relative_gap();
  if (gap <= cfg.target_relative_gap)
    return {SolverAction::kStop, SolverStop::kConverged, {}, {}};
  // The budgets are read at the check, so the bounds just evaluated are
  // the reported ones: a wide but valid bracket (Prop. II.1 holds at any
  // n), never a hang.
  if (c.iterations >= cfg.max_total_iterations) return short_stop(SolverStop::kIterationBudget);
  if (c.cancelled) return short_stop(SolverStop::kCancelled);
  if (cfg.deadline_ms > 0 && c.elapsed_ms >= static_cast<double>(cfg.deadline_ms))
    return short_stop(SolverStop::kDeadlineExceeded);
  // A stall is several consecutive low-improvement checks: the gap of a
  // slowly mixing chain shrinks steadily but slowly, and a single noisy
  // check must not trigger refinement.
  const bool slow =
      std::isfinite(stall.prev_gap) && stall.prev_gap - gap < kStallImprovement * stall.prev_gap;
  stall = {gap, slow ? stall.stalled_checks + 1 : 0};
  if (stall.stalled_checks < kStallThreshold && c.level_iterations < cfg.max_iterations_per_level)
    return {SolverAction::kIterate, SolverStop::kNone, {}, stall};
  if (c.bins * 2 > cfg.max_bins) return short_stop(SolverStop::kBinBudget);
  return {SolverAction::kRefine, SolverStop::kNone, {}, {}};  // the fine level stalls afresh
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
    throw bad("service rate is finite and > 0", obs::fmt("service rate = %g", service_rate));
  if (!(buffer > 0.0) || !std::isfinite(buffer))
    throw bad("buffer is finite and > 0", obs::fmt("buffer = %g", buffer));
}

void FluidQueueSolver::sweep(std::size_t bins, std::size_t first, std::size_t stride,
                             const LevelTables& out) const {
  // W = T (lambda - c), summed over the rates in marginal order, one rate
  // at a time, so each entry adds the same terms in the same order as a
  // per-point loop over the rates. A rate above c gives Pr{T > t} /
  // Pr{T >= t} at t = w / (lambda - c), a rate below c gives
  // 1 - Pr{T >= t} / 1 - Pr{T > t}, and a rate equal to c adds a step at
  // w = 0. Where t <= 0 both epoch ccdfs are 1 (the interface's contract):
  // a rate above c adds its probability, one below c adds nothing, and
  // the law is not asked. At t > 0 it is asked once per chunk of points,
  // only for the values the wanted tables read.
  const double d = numerics::Grid(buffer_, bins).step();
  const auto m = static_cast<double>(bins);
  const std::size_t last = 2 * bins;
  const auto& rates = marginal_.rates();
  const auto& probs = marginal_.probs();
  // Headroom 0 (grid point i = 0, occupancy M d) is E[T] for every rate.
  const double mean_excess = out.kernel ? epochs_->excess_mean(0.0) : 0.0;
  constexpr std::size_t kChunk = 128;
  double t[kChunk]{}, law_open[kChunk]{}, law_closed[kChunk]{}, excess[kChunk]{};
  std::size_t point[kChunk]{};
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const double p = probs[r];
    const double dr = rates[r] - service_rate_;
    const bool up = dr > 0.0;
    // The law's outputs the wanted tables read at this rate; null skips one.
    double* const want_open = (up ? out.open : out.closed) ? law_open : nullptr;
    double* const want_closed = (up ? out.closed : out.open) ? law_closed : nullptr;
    double* const want_excess = up && out.kernel ? excess : nullptr;
    for (std::size_t k = first; k <= last;) {
      std::size_t n = 0;  // points of this chunk at which the law is asked
      for (; k <= last && n < kChunk; k += stride) {
        const double w = (static_cast<double>(k) - m) * d;
        if (dr == 0.0) {
          if (out.open && w < 0.0) out.open[k] += p;
          if (out.closed && w <= 0.0) out.closed[k] += p;
          continue;
        }
        const double tk = w / dr;
        if (tk > 0.0) {
          t[n] = tk;
          point[n++] = k;
        } else if (up) {
          if (out.open) out.open[k] += p;
          if (out.closed) out.closed[k] += p;
          if (out.kernel && k >= bins) out.kernel[last - k] += p * dr * mean_excess;
        }
      }
      if (n == 0) continue;
      epochs_->tabulate(t, n, want_open, want_closed, want_excess);
      for (std::size_t q = 0; q < n; ++q) {
        const std::size_t at = point[q];
        if (up) {
          // t > 0 means at > M: grid point i = at - M is the headroom of
          // occupancy j = 2M - at.
          if (out.open) out.open[at] += p * law_open[q];
          if (out.closed) out.closed[at] += p * law_closed[q];
          if (out.kernel) out.kernel[last - at] += p * dr * excess[q];
        } else {
          if (out.open) out.open[at] += p * (1.0 - law_closed[q]);
          if (out.closed) out.closed[at] += p * (1.0 - law_open[q]);
        }
      }
    }
  }
}

std::vector<double> FluidQueueSolver::increment_pmf_lower(std::size_t bins) const {
  if (bins == 0) throw std::invalid_argument("increment_pmf_lower: bins must be >= 1");
  // Eq. 21: i = -M lumps everything below (-M+1)d; i = M lumps [Md, inf).
  std::vector<double> closed(2 * bins + 1, 0.0);  // Pr{W >= i d}, i = -M..M
  sweep(bins, 1, 1, {nullptr, closed.data(), nullptr});
  return pmf_from_ccdf(closed.data() + 1, bins);
}

std::vector<double> FluidQueueSolver::increment_pmf_upper(std::size_t bins) const {
  if (bins == 0) throw std::invalid_argument("increment_pmf_upper: bins must be >= 1");
  // Eq. 22: i = -M lumps (-inf, -Md]; i = M lumps ((M-1)d, inf).
  std::vector<double> open(2 * bins + 1, 0.0);  // Pr{W > i d}, i = -M..M
  sweep(bins, 0, 1, {open.data(), nullptr, nullptr});
  return pmf_from_ccdf(open.data(), bins);
}

double FluidQueueSolver::overflow_kernel(double x) const {
  return expected_loss_given_occupancy(marginal_, *epochs_, service_rate_, buffer_,
                                       std::min(x, buffer_));
}

FluidQueueSolver::Level FluidQueueSolver::build_level(std::size_t bins, const Level* coarse) const {
  const numerics::Grid grid(buffer_, bins);
  // Refinement carry-over: with d = 2 d' exactly, fine point 2j d' is
  // coarse point j d bit for bit, so every even fine entry is a coarse
  // entry and only the odd ones are evaluated. Occupancy j is headroom
  // point 2M - j, of the same parity.
  const bool carry = coarse != nullptr && 2 * coarse->grid.bins() == bins &&
                     2.0 * grid.step() == coarse->grid.step();
  std::vector<double> open(2 * bins + 1, 0.0), closed(2 * bins + 1, 0.0), kernel(bins + 1, 0.0);
  if (carry) {
    for (std::size_t k = 0; k <= bins; ++k) {
      open[2 * k] = coarse->ccdf_open[k];
      closed[2 * k] = coarse->ccdf_closed[k];
    }
    for (std::size_t j = 0; j <= bins / 2; ++j) kernel[2 * j] = coarse->kernel[j];
  }
  sweep(bins, carry ? 1 : 0, carry ? 2 : 1, {open.data(), closed.data(), kernel.data()});
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
  SolverCheck check;
  check.bins = cfg.initial_bins;
  std::vector<double> q_low, q_high;
  obs::SteadyTime level_start;
  double level_drift = 0.0;  // worst pre-renormalization mass drift of the level
  bool level_bounded = false;  // whether the level evaluated its bounds

  // Level entry: its clock starts before its build. The first level starts
  // the chains empty and full, a refinement re-seeds them from the coarse
  // level (footnote 3). Each level stamps a profiler sample with this
  // query's id, so even a solve shorter than the sampling interval shows.
  auto enter_level = [&](const Level* coarse) {
    level_start = obs::now();
    level_drift = 0.0;
    level_bounded = false;
    core::failpoint_hit("solve.level");
    obs::flight::record(obs::flight::EventKind::kSolveLevel, "solve", check.level, check.bins);
    obs::profiler::sample_now();
    // Seeded before the build, where a refining solve's memory peaks: the
    // other order raised that peak by about 50 KB at 8192 bins.
    std::vector<double> low = coarse ? refine_pmf(q_low) : dirac(check.bins + 1, 0);
    std::vector<double> high = coarse ? refine_pmf(q_high) : dirac(check.bins + 1, check.bins);
    Level fine = build_level(check.bins, coarse);
    q_low = std::move(low);
    q_high = std::move(high);
    return fine;
  };
  // Level close: the level's telemetry, projected from its last check (a
  // guard-tripped level's is its failing state, before the rollback). A
  // level whose first check tripped a step guard never bounded the loss:
  // its bracket is NaN, not the previous level's bounds the record keeps.
  auto close_level = [&] {
    if (!cfg.collect_telemetry) return;
    double sup_gap = 0.0;
    for (std::size_t j = 0; j < q_low.size(); ++j)
      sup_gap = std::max(sup_gap, std::abs(q_high[j] - q_low[j]));
    const LossBounds bracket =
        level_bounded ? check.loss : LossBounds{std::nan(""), std::nan("")};
    result.telemetry.levels.push_back({check.bins, check.level_iterations, bracket.lower,
                                       bracket.upper, sup_gap, level_drift,
                                       obs::seconds_since(level_start)});
  };

  Level level = enter_level(nullptr);
  // The previous check's state, which passed every guard: a guard trip
  // rolls back to it.
  struct {
    std::vector<double> q_low, q_high;
    LossBounds loss;
    std::size_t bins = 0;
  } healthy;
  SolverDecision decision;
  while (true) {
    check.low = check.high = StepHealth{};
    for (std::size_t k = 0; k < kCheckEvery; ++k)
      level.engine.step(q_low, q_high, check.low, check.high);
    check.iterations += kCheckEvery;
    check.level_iterations += kCheckEvery;
    level_drift = std::max({level_drift, check.low.mass_dev, check.high.mass_dev});
    // Bounds are read only from pmfs that pass the step guards (SolverCheck::loss).
    if (!step_guard(check.low, "lower") && !step_guard(check.high, "upper")) {
      check.loss = {loss_from_pmf(q_low, level.kernel), loss_from_pmf(q_high, level.kernel)};
      level_bounded = true;
    }
    check.elapsed_ms = obs::seconds_since(solve_start) * 1000.0;
    check.cancelled = cfg.cancellation != nullptr && cfg.cancellation->cancelled();

    decision = decide(check, cfg, decision.stall);
    if (decision.action == SolverAction::kStop) break;
    healthy.q_low = q_low;
    healthy.q_high = q_high;
    healthy.loss = check.loss;
    healthy.bins = check.bins;
    if (decision.action == SolverAction::kRefine) {
      close_level();
      ++check.level;
      check.bins *= 2;
      check.level_iterations = 0;
      level = enter_level(&level);
      obs::instant("solver.refine", "solver", "bins", check.bins);
    }
  }
  close_level();

  result.stop = decision.stop;
  result.status = std::move(decision.status);
  result.zero_loss = result.stop == SolverStop::kZeroLoss;
  result.converged = result.zero_loss || result.stop == SolverStop::kConverged;
  result.last_healthy_level = last_healthy_level(check, result.stop);
  result.iterations = check.iterations;
  result.levels = check.level;
  result.loss = check.loss;
  result.final_bins = check.bins;
  // Graceful degradation: a guard trip reports the previous check's state,
  // whose bounds still bracket the true loss by monotonicity, or, when the
  // first check tripped, the vacuous but valid brackets and no pmfs.
  const bool tripped = result.stop == SolverStop::kGuardTripped;
  if (tripped && result.last_healthy_level == 0) {
    result.loss = LossBounds{0.0, 1.0};
    result.mean_queue_upper = buffer_;
  } else {
    if (tripped) {
      result.loss = healthy.loss;
      result.final_bins = healthy.bins;
      q_low.swap(healthy.q_low);
      q_high.swap(healthy.q_high);
    }
    const double step = buffer_ / static_cast<double>(result.final_bins);
    result.mean_queue_lower = pmf_mean(q_low, step);
    result.mean_queue_upper = pmf_mean(q_high, step);
    result.occupancy_lower = std::move(q_low);
    result.occupancy_upper = std::move(q_high);
  }

  if (cfg.collect_telemetry) result.telemetry.total_seconds = obs::seconds_since(solve_start);
  publish(result, cfg, solve_start, solve_span);
  return result;
}

}  // namespace lrd::queueing
