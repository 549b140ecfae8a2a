#include "core/model.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace lrd::core {

namespace {

lrd::Status bad_config(std::string invariant, const char* name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s = %g", name, value);
  return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                    "core.model", std::move(invariant), buf));
}

}  // namespace

lrd::Status ModelConfig::validate() const {
  if (!(hurst > 0.5 && hurst < 1.0)) return bad_config("hurst in (1/2, 1)", "hurst", hurst);
  if (!(mean_epoch > 0.0) || !std::isfinite(mean_epoch))
    return bad_config("mean_epoch is finite and > 0", "mean_epoch", mean_epoch);
  if (!(cutoff > 0.0))  // +inf is the fully self-similar case and is allowed
    return bad_config("cutoff > 0 (possibly +inf)", "cutoff", cutoff);
  if (!(utilization > 0.0 && utilization < 1.0))
    return bad_config("utilization in (0, 1)", "utilization", utilization);
  if (!(normalized_buffer > 0.0) || !std::isfinite(normalized_buffer))
    return bad_config("normalized_buffer is finite and > 0", "normalized_buffer",
                      normalized_buffer);
  return lrd::Status::ok();
}

FluidModel::FluidModel(dist::Marginal marginal, const ModelConfig& cfg)
    : marginal_(std::move(marginal)), cfg_(cfg) {
  if (auto st = cfg.validate(); !st.is_ok()) throw lrd::ConfigError(st.diagnostics());
  const double alpha = dist::TruncatedPareto::alpha_from_hurst(cfg.hurst);
  const double theta = dist::TruncatedPareto::theta_from_mean_epoch(cfg.mean_epoch, alpha);
  epochs_ = std::make_shared<const dist::TruncatedPareto>(theta, alpha, cfg.cutoff);
  service_rate_ = marginal_.service_rate_for_utilization(cfg.utilization);
  buffer_ = cfg.normalized_buffer * service_rate_;
}

queueing::FluidQueueSolver FluidModel::solver() const {
  return queueing::FluidQueueSolver(marginal_, epochs_, service_rate_, buffer_);
}

queueing::SolverResult FluidModel::solve(const queueing::SolverConfig& scfg) const {
  return solver().solve(scfg);
}

}  // namespace lrd::core
