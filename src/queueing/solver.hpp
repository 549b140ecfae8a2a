// The paper's numerical procedure (Section II): monotone lower/upper
// bounds on the loss rate of a finite-buffer constant-service fluid queue
// fed by the modulated fluid source.
//
// Two discretized occupancy processes bracket the true one:
//   Q_L: floor quantization,   started empty (q = delta_0),
//   Q_H: ceiling quantization, started full  (q = delta_B).
// One iteration = one epoch: convolve the occupancy pmf with the fixed
// increment pmf w_L / w_H (Eq. 19, 21, 22), then fold the mass that left
// [0, B] onto the boundary atoms (Eq. 20). By Proposition II.1 the derived
// loss rates l(Q_L^M(n)) and l(Q_H^M(n)) are monotone in both the
// iteration count n and the bin count M and bracket the true l, so the
// solver iterates until the bracket is tight, doubling M (and re-seeding
// the fine recursion from the coarse distributions, footnote 3) whenever
// convergence stalls.
//
// Each check block (kCheckEvery steps) fills one SolverCheck record;
// decide() reads it with the stall rule's state and answers iterate,
// refine, or stop with a SolverStop and its Status. Its cases, in order:
//   1. the step guards (lower chain, then upper), then the finite and
//      inverted-bracket guards on the loss bounds;
//   2. zero loss (upper < kZeroLossThreshold), then converged;
//   3. the total iteration budget, cancellation, then the deadline;
//   4. a stall (kStallThreshold checks in a row improving the relative
//      gap by less than kStallImprovement) or the per-level budget, which
//      refines, or at max_bins stops on the bin budget.
// Around it, solve() has one level entry, one level close (the telemetry
// projection) and, after the loop, the rollback of a guard trip.
//
// Level build: one sweep per rate samples the increment ccdfs Pr{W > i d}
// and Pr{W >= i d} at the grid points i = -M..M, asking the epoch law
// once per chunk of points (EpochDistribution::tabulate) at each t > 0
// the rate maps a point to. The same call gives, for a rate above c, the
// excess mean at that t, and grid point i = M - j is headroom (M - j) d,
// so the overflow kernel E[W_l | Q = j d] is read off the same sweep.
// Both increment pmfs are differences of the two tables; the level keeps
// the tables so the refinement to 2M reuses them at its even grid points,
// which are the coarse points bit for bit.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "core/status.hpp"
#include "dist/epoch.hpp"
#include "dist/marginal.hpp"
#include "numerics/convolution.hpp"
#include "numerics/grid.hpp"
#include "obs/telemetry.hpp"
#include "queueing/loss.hpp"
#include "runtime/executor.hpp"

namespace lrd::queueing {

/// Report zero loss when the upper bound falls below this (paper: 1e-10).
inline constexpr double kZeroLossThreshold = 1e-10;
/// Evaluate the loss bounds every kCheckEvery iterations.
inline constexpr std::size_t kCheckEvery = 16;
/// Refine (double M) after kStallThreshold consecutive checks in which
/// the relative gap improved by less than this factor, while still above
/// target.
inline constexpr double kStallImprovement = 5e-3;
inline constexpr int kStallThreshold = 3;

// Numerical-health guardrails. Each fold step measures the occupancy pmf
// *before* it is clamped/renormalized; a violation beyond these
// tolerances trips the guard, which rolls the result back to the last
// healthy check and attaches a structured diagnostic (it never aborts,
// hangs, or returns NaN bounds). FFT round-off sits around 1e-14, so the
// tolerances have orders of magnitude of headroom.
/// Allowed per-step deviation of total pmf mass from 1.
inline constexpr double kMassTolerance = 1e-6;
/// Most negative pre-clamp pmf entry tolerated.
inline constexpr double kNegativeTolerance = 1e-9;
/// Relative slack tolerated before lower > upper counts as an inverted
/// bracket (Prop. II.1 violation).
inline constexpr double kBracketTolerance = 1e-9;

/// Worst pre-sanitize health seen by one occupancy chain over a check
/// interval; the solver's guardrails read it before renormalization can
/// hide drift. DualFoldEngine::step merges each step's scan into it.
struct StepHealth {
  double mass_dev = 0.0;   ///< worst |mass - 1|, mass the compensated sum of the finite entries
  double min_entry = 0.0;  ///< most negative pre-clamp entry
  bool finite = true;      ///< false once any entry was NaN or +/-Inf
};

/// The solver's per-epoch hot loop: advances the paired Q_L / Q_H
/// occupancy chains one epoch (Eq. 19-20), then folds the spilled mass
/// onto the boundary atoms and renormalizes.
///
/// One data layout at every level: both chains share a single complex
/// FFT round-trip — q_low and q_high ride as the real and imaginary
/// parts of one transform (DualKernelConvolver). The transform is a
/// circular convolution on n = next_pow2(2M) points: the linear result
/// u = q * w lives on [0, 3M], and for M + 1 <= k <= 2M - 1 every alias
/// k - n, k + n falls outside it, so the fold's interior is read
/// un-aliased. The two boundary atoms never touch the transform: they
/// are dot products of the pre-step pmf with per-level tail sums of the
/// increment pmf, next[0] = sum_j q[j] sum_{i <= M-j} w[i] and
/// next[M] = sum_j q[j] sum_{i >= 2M-j} w[i].
///
/// A step makes one pass on each side of the transform, then one more.
/// The pack pass (the kernel table's fold_pack entry, after zeroing the
/// convolver's workspace) writes point j of the pair (q_low, q_high) to
/// its bit-reversed position and takes the four atom dot products.
/// DualKernelConvolver::round_trip runs both transforms' stages and the
/// spectrum multiply on that workspace, with no bit-reversal pass. The
/// scan pass (the table's fold_scan entry) reads the interior straight
/// from the transform's output, scales it by 1/n, and, in j order with
/// the atoms at 0 and M, scans the pre-sanitize pmfs' health (merged
/// into StepHealth) and clamps round-off below zero. The last pass
/// renormalizes. Besides the workspace and the per-level tails table,
/// the engine holds only the two (M + 1)-entry next-state pmfs. Every
/// kernel table gives the same bits. The step runs on the calling thread,
/// so brackets do not depend on any thread setting. All scratch buffers
/// are owned by the engine and sized at construction: steady-state
/// step() calls perform zero heap allocations. Not thread-safe: one
/// engine per level per thread.
class DualFoldEngine {
 public:
  /// Increment pmfs w_L / w_H for this level; each must have
  /// 2 * bins + 1 entries (bins >= 1) and be finite.
  DualFoldEngine(std::vector<double> lower_pmf, std::vector<double> upper_pmf, std::size_t bins);

  std::size_t bins() const noexcept { return bins_; }
  /// Always false: the chains never run as two separate convolutions.
  /// Kept for callers that bucket fold timings by layout.
  bool split_mode() const noexcept { return false; }

  /// One epoch for both chains. `q_low` / `q_high` must have bins() + 1
  /// entries; they are replaced by the folded, sanitized next-state pmfs.
  /// Pre-sanitize mass health is merged into the two health accumulators.
  void step(std::vector<double>& q_low, std::vector<double>& q_high, StepHealth& low_health,
            StepHealth& high_health);

 private:
  /// Mass of each increment pmf on the increments that empty / fill the
  /// buffer from occupancy j, zero[j] = sum_{i <= M-j} w[i] and
  /// full[j] = sum_{i >= 2M-j} w[i], interleaved as the fold_pack entry
  /// reads them: row j is (zero_L[j], zero_H[j], full_L[j], full_H[j]).
  static std::vector<double> tails(const std::vector<double>& lower_pmf,
                                   const std::vector<double>& upper_pmf, std::size_t bins);

  std::size_t bins_;
  std::vector<double> tails_;  // 4 (M + 1) entries, built before conv_ takes the pmfs
  numerics::DualKernelConvolver conv_;
  numerics::DualKernelConvolver::Workspace ws_;
  std::vector<double> next_low_, next_high_;  // folded pmfs, M + 1
};

struct SolverConfig {
  /// Bin count M of the first discretization level.
  std::size_t initial_bins = 128;
  /// Hard cap on M (levels double: 128, 256, ..., <= max_bins).
  std::size_t max_bins = 1 << 14;
  /// Stop when (upper - lower) <= target_relative_gap * midpoint
  /// (the paper uses 20%).
  double target_relative_gap = 0.2;
  /// Safety cap on iterations within one level.
  std::size_t max_iterations_per_level = 30000;
  /// Safety cap on total iterations across levels.
  std::size_t max_total_iterations = 300000;

  /// Wall-clock budget for one solve in milliseconds; 0 = unbounded. The
  /// clock is checked at every check-block boundary (every kCheckEvery
  /// iterations), so a solve returns within one check block of the
  /// deadline — with a *valid but wide* bracket (Prop. II.1 holds at any
  /// iteration count), SolverStop::kDeadlineExceeded, and a
  /// kResourceExhausted diagnostic mentioning "deadline_exceeded". Like
  /// `collect_telemetry`, excluded from the solver-cache config hash:
  /// only converged results are cached, and a converged trajectory is
  /// identical with or without a deadline that it never hit.
  std::size_t deadline_ms = 0;
  /// Optional cooperative-cancellation token, polled at the same
  /// boundaries; non-owning. Cancellation stops the solve with
  /// SolverStop::kCancelled and the same valid-wide-bracket contract.
  /// Also excluded from the cache config hash (same argument).
  const runtime::CancellationToken* cancellation = nullptr;

  /// Record per-level convergence telemetry (bin count, iterations, loss
  /// bracket, sup-norm occupancy gap, worst mass drift, wall time) into
  /// SolverResult::telemetry. Off by default: collection costs one pmf
  /// scan per level plus a few timer reads. Does NOT affect the numerics
  /// and is deliberately excluded from the solver-cache config hash.
  bool collect_telemetry = false;

  /// Ok, or a kInvalidConfig diagnostic with a precise message. Called by
  /// every public solve entry point.
  lrd::Status validate() const;
};

/// Why the solver stopped — always set, so `converged == false` is never
/// the only signal a caller gets.
enum class SolverStop {
  kNone = 0,         ///< solve() has not run.
  kConverged,        ///< Bracket met target_relative_gap.
  kZeroLoss,         ///< Upper bound fell below kZeroLossThreshold.
  kIterationBudget,  ///< max_total_iterations exhausted before convergence.
  kBinBudget,        ///< Stalled and max_bins prevents further refinement.
  kGuardTripped,     ///< A numerical-health guardrail fired; result rolled
                     ///< back to the last healthy state.
  kDeadlineExceeded, ///< deadline_ms elapsed; bracket is valid but wide.
  kCancelled,        ///< Cancellation token fired; bracket is valid but wide.
};

const char* solver_stop_name(SolverStop stop) noexcept;

struct SolverResult {
  LossBounds loss;
  /// True when the upper bound dropped below the zero-loss threshold
  /// (loss reported as 0, per the paper's convention).
  bool zero_loss = false;
  /// True when the bracket met target_relative_gap (or zero_loss).
  bool converged = false;
  std::size_t final_bins = 0;  // populated on every exit path
  std::size_t iterations = 0;  // total across levels
  std::size_t levels = 0;      // number of discretization levels used

  /// How the solve ended (see SolverStop).
  SolverStop stop = SolverStop::kNone;
  /// Ok for kConverged / kZeroLoss; otherwise a structured diagnostic
  /// naming the violated invariant and the iteration/level/bin context.
  /// Budget-exhausted results (kResourceExhausted) still carry a valid —
  /// just wide — bracket; guard-tripped results carry the bracket of the
  /// last healthy level, or the vacuous [0, 1] if none completed.
  lrd::Status status;
  /// Last discretization level (1-based) whose state passed every health
  /// check; 0 when no check completed cleanly.
  std::size_t last_healthy_level = 0;

  /// Final occupancy pmfs over {0, d, ..., B} (lower/upper processes).
  /// Empty only when a guard tripped before any healthy check.
  std::vector<double> occupancy_lower;
  std::vector<double> occupancy_upper;

  /// Mean queue occupancy bracket from the final pmfs.
  double mean_queue_lower = 0.0;
  double mean_queue_upper = 0.0;

  /// Per-level convergence audit trail; empty unless
  /// SolverConfig::collect_telemetry was set.
  obs::SolverTelemetry telemetry;

  /// Midpoint loss with the zero-loss convention applied.
  double loss_estimate() const noexcept { return zero_loss ? 0.0 : loss.mid(); }

  /// Exit code of this outcome: 0 converged (or zero loss), 1 stopped
  /// short with an ok status, otherwise the code of the diagnostic's
  /// category (lrd::exit_code_for).
  int exit_code() const noexcept {
    if (converged) return 0;
    return status.is_ok() ? 1 : lrd::exit_code_for(status.category());
  }
};

/// What one check block saw: the record the stop rules read. solve()
/// refills one record every kCheckEvery steps.
struct SolverCheck {
  std::size_t iterations = 0;        ///< Total across levels.
  std::size_t level_iterations = 0;  ///< At this level.
  std::size_t level = 1;             ///< Discretization level, 1-based.
  std::size_t bins = 0;              ///< Its bin count M.
  /// l(Q_L), l(Q_H) of the block's last pmfs. They are read only from
  /// pmfs that pass the step guards; after a step-guard trip the record
  /// keeps the last bounds evaluated.
  LossBounds loss;
  StepHealth low, high;     ///< Each chain's worst health over the block.
  double elapsed_ms = 0.0;  ///< Since the solve began.
  bool cancelled = false;   ///< SolverConfig::cancellation had fired.
};

/// The stall rule's two numbers, carried from check to check; a
/// refinement resets them.
struct StallState {
  double prev_gap = std::numeric_limits<double>::infinity();  ///< Previous relative gap.
  int stalled_checks = 0;  ///< Consecutive checks improving it by < kStallImprovement.
};

enum class SolverAction { kIterate, kRefine, kStop };

struct SolverDecision {
  SolverAction action = SolverAction::kIterate;
  SolverStop stop = SolverStop::kNone;  ///< Why, when action is kStop.
  lrd::Status status;  ///< Ok, or the stop's diagnostic with the check's context.
  StallState stall;  ///< The stall rule's numbers for the next check.
};

/// The stop rules of one check, in the order of this file's header. Pure:
/// reads only its arguments. A guard trip's last healthy level is the
/// previous check's (0 at the solve's first); any other stop's is `check.level`.
SolverDecision decide(const SolverCheck& check, const SolverConfig& cfg, StallState stall);

class FluidQueueSolver {
 public:
  /// `service_rate` c > 0, `buffer` B > 0. A marginal whose every rate is
  /// <= c yields zero loss; rates equal to c are allowed (they contribute
  /// a zero increment, consistent with Eq. 9).
  FluidQueueSolver(dist::Marginal marginal, dist::EpochPtr epochs, double service_rate,
                   double buffer);

  const dist::Marginal& marginal() const noexcept { return marginal_; }
  const dist::EpochDistribution& epochs() const noexcept { return *epochs_; }
  double service_rate() const noexcept { return service_rate_; }
  double buffer() const noexcept { return buffer_; }
  double utilization() const noexcept { return marginal_.mean() / service_rate_; }

  /// Full adaptive solve. Throws lrd::ConfigError on an invalid config;
  /// pathological-but-well-formed inputs (a mass-leaking kernel, budget
  /// exhaustion) come back as a SolverResult carrying a structured
  /// diagnostic rather than throwing. Overloaded queues (utilization >=
  /// 1) are solved normally: the finite buffer keeps the chain stable.
  SolverResult solve(const SolverConfig& cfg = {}) const;

  /// Runs exactly `iterations` iterations at a fixed M and returns the
  /// state — used to reproduce Fig. 2 (bounds after n = 5, 10, 30 at
  /// M = 100) and by the property tests of Proposition II.1.
  struct LevelSnapshot {
    std::size_t bins = 0;
    std::vector<double> q_lower;  // occupancy pmf of Q_L^M(n)
    std::vector<double> q_upper;  // occupancy pmf of Q_H^M(n)
    LossBounds loss;
  };
  LevelSnapshot iterate_fixed(std::size_t bins, std::size_t iterations) const;

  /// E[W_l | Q = x]: the exact overflow kernel used by the bounds.
  double overflow_kernel(double x) const;

  /// Exact increment pmfs w_L / w_H at a given M (index 0 <-> i = -M),
  /// from the level build's sweep (one table each). Exposed for tests;
  /// both sum to 1.
  std::vector<double> increment_pmf_lower(std::size_t bins) const;
  std::vector<double> increment_pmf_upper(std::size_t bins) const;

 private:
  dist::Marginal marginal_;
  dist::EpochPtr epochs_;
  double service_rate_;
  double buffer_;

  /// One discretization level: its grid, fold engine and overflow kernel,
  /// and the increment ccdf tables its pmfs were built from, kept for the
  /// next refinement to read.
  struct Level {
    numerics::Grid grid;
    DualFoldEngine engine;       // batched Q_L / Q_H epoch step
    std::vector<double> kernel;  // E[W_l | Q = j d] for j = 0..M
    // Pr{W > i d} / Pr{W >= i d} for i = -M..M (index i + M).
    std::vector<double> ccdf_open, ccdf_closed;
  };
  /// The level at `bins`. When `coarse` is the level at bins / 2, its
  /// tables and kernel fill the even entries (fine point 2j is coarse
  /// point j bit for bit) and only the odd ones are evaluated; the
  /// result equals a fresh build bit for bit.
  Level build_level(std::size_t bins, const Level* coarse = nullptr) const;

  /// Where a sweep adds: Pr{W > i d} and Pr{W >= i d} for i = -M..M
  /// (index i + M, 2M + 1 entries) and E[W_l | Q = j d] for j = 0..M.
  /// A null table is not filled, and no epoch value only it reads is
  /// asked for.
  struct LevelTables {
    double* open = nullptr;
    double* closed = nullptr;
    double* kernel = nullptr;
  };
  /// Adds every rate's share, in marginal order, at the grid points
  /// first, first + stride, ... <= 2M (index i + M) of the level at
  /// `bins`, and the kernel at the occupancies those points are the
  /// headroom of; the tables start zeroed.
  void sweep(std::size_t bins, std::size_t first, std::size_t stride,
             const LevelTables& out) const;

  double loss_from_pmf(const std::vector<double>& q, const std::vector<double>& kernel) const;

  friend struct LevelBuildProbe;  // tests: carried levels against fresh builds
};

}  // namespace lrd::queueing
