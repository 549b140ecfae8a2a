// FluidModel: the paper's parameterization bundled into one object.
//
// A model is (marginal Pi, Hurst H, mean epoch length, cutoff lag T_c,
// utilization rho, normalized buffer b):
//   alpha = 3 - 2H,   theta = mean_epoch * (alpha - 1)    (Eq. 25, T_c = inf)
//   c = mean_rate / rho,   B = b * c.
// These are exactly the knobs the figures sweep.
#pragma once

#include <limits>
#include <memory>

#include "core/status.hpp"
#include "dist/marginal.hpp"
#include "dist/truncated_pareto.hpp"
#include "queueing/solver.hpp"

namespace lrd::core {

struct ModelConfig {
  double hurst = 0.9;
  /// Mean epoch length in seconds at T_c = infinity (the paper calibrates
  /// theta from the trace's mean same-histogram-bin run length).
  double mean_epoch = 0.08;
  /// Cutoff lag T_c in seconds; +infinity for the fully self-similar case.
  double cutoff = std::numeric_limits<double>::infinity();
  /// Target utilization rho in (0, 1); sets c = mean_rate / rho.
  double utilization = 0.8;
  /// Normalized buffer size b in seconds; B = b * c.
  double normalized_buffer = 1.0;

  /// Ok, or a kInvalidConfig diagnostic with a precise message (e.g.
  /// "utilization = 1.2 outside (0, 1)"). The FluidModel constructor
  /// calls this, so an invalid config can never reach the solver.
  lrd::Status validate() const;
};

class FluidModel {
 public:
  FluidModel(dist::Marginal marginal, const ModelConfig& cfg);

  const dist::Marginal& marginal() const noexcept { return marginal_; }
  const ModelConfig& config() const noexcept { return cfg_; }
  std::shared_ptr<const dist::TruncatedPareto> epochs() const noexcept { return epochs_; }

  double alpha() const noexcept { return epochs_->alpha(); }
  double theta() const noexcept { return epochs_->theta(); }
  double service_rate() const noexcept { return service_rate_; }
  double buffer() const noexcept { return buffer_; }

  /// The queue solver for this model.
  queueing::FluidQueueSolver solver() const;

  /// Solve and return the loss estimate with the paper's conventions
  /// (midpoint of the bracket; 0 when the upper bound < 1e-10).
  queueing::SolverResult solve(const queueing::SolverConfig& scfg = {}) const;

 private:
  dist::Marginal marginal_;
  ModelConfig cfg_;
  std::shared_ptr<const dist::TruncatedPareto> epochs_;
  double service_rate_;
  double buffer_;
};

}  // namespace lrd::core
