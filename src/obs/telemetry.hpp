// Per-solve convergence telemetry for the bounded refinement loop.
//
// Proposition II.1 promises a bracket [l(Q_L), l(Q_H)] that is monotone
// in the iteration count and the bin count — telemetry is the audit
// trail of that promise: one record per discretization level with the
// level's bin count, iteration count, final loss bracket, the sup-norm
// distance between the two occupancy pmfs, the worst
// pre-renormalization mass drift the guardrails observed, and wall
// time from the level's entry (its build included) to its close.
// Collection is opt-in (SolverConfig::collect_telemetry); the
// struct rides on SolverResult and serializes into sweep manifests and
// `lrdq_solve --telemetry-out`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lrd::obs {

/// One discretization level of one solve.
struct LevelTelemetry {
  std::size_t bins = 0;         ///< Bin count M of this level.
  std::size_t iterations = 0;   ///< Iterations spent at this level.
  /// l(Q_L^M) / l(Q_H^M) at the level's last check; NaN (JSON null) when
  /// no check of the level passed the step guards, so it never bounded
  /// the loss.
  double bracket_lower = 0.0;
  double bracket_upper = 0.0;
  double occupancy_gap = 0.0;   ///< ||Q_H - Q_L||_inf at the level's end.
  double mass_drift = 0.0;      ///< Worst pre-renormalization |mass - 1|.
  double wall_seconds = 0.0;    ///< Wall time from the level's entry, its build included.

  double bracket_width() const noexcept { return bracket_upper - bracket_lower; }
};

struct SolverTelemetry {
  std::vector<LevelTelemetry> levels;
  double total_seconds = 0.0;

  bool empty() const noexcept { return levels.empty(); }

  /// Compact JSON object: {"total_seconds": ..., "levels": [ {...}, ... ]}.
  std::string to_json() const;
};

}  // namespace lrd::obs
