#include "queueing/fluid_queue_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "numerics/special_functions.hpp"
#include "obs/trace.hpp"

namespace {

lrd::ConfigError bad_sim(std::string invariant, std::string message) {
  return lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                "queueing.fluid_sim", std::move(invariant),
                                                std::move(message)));
}

}  // namespace

namespace lrd::queueing {

lrd::Status FluidSimConfig::validate() const {
  auto fail = [](std::string invariant, std::string message) {
    return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                      "queueing.fluid_sim", std::move(invariant),
                                                      std::move(message)));
  };
  if (batches < 2)
    return fail("batches >= 2 (batch-means needs a variance)",
                "batches = " + std::to_string(batches));
  if (epochs < batches)
    return fail("epochs >= batches", "epochs = " + std::to_string(epochs) + ", batches = " +
                                         std::to_string(batches));
  return lrd::Status::ok();
}

FluidSimResult simulate_fluid_queue(const dist::Marginal& marginal,
                                    const dist::EpochDistribution& epochs_dist,
                                    double service_rate, double buffer,
                                    const FluidSimConfig& cfg) {
  if (!(service_rate > 0.0) || !std::isfinite(service_rate))
    throw bad_sim("service rate is finite and > 0", "service_rate = " + std::to_string(service_rate));
  if (!(buffer > 0.0) || !std::isfinite(buffer))
    throw bad_sim("buffer is finite and > 0", "buffer = " + std::to_string(buffer));
  if (auto st = cfg.validate(); !st.is_ok()) throw lrd::ConfigError(st.diagnostics());

  obs::Span sim_span("sim.fluid_queue", "sim");
  sim_span.annotate("epochs", cfg.epochs, "batches", cfg.batches);

  numerics::Rng rng(cfg.seed);
  const numerics::AliasTable alias(marginal.probs());
  const auto& rates = marginal.rates();

  double q = 0.0;
  auto step = [&](double& lost, double& arrived, double& elapsed) {
    const double t = epochs_dist.sample(rng);
    const double lambda = rates[alias.sample(rng)];
    const double w = t * (lambda - service_rate);
    arrived += lambda * t;
    const double u = q + w;
    lost += std::max(0.0, u - buffer);
    elapsed += t;
    q = std::clamp(u, 0.0, buffer);
  };

  double sink_l = 0.0, sink_a = 0.0, sink_t = 0.0;
  for (std::size_t n = 0; n < cfg.warmup_epochs; ++n) step(sink_l, sink_a, sink_t);

  const std::size_t per_batch = cfg.epochs / cfg.batches;
  std::vector<double> batch_loss(cfg.batches, 0.0);
  double total_lost = 0.0, total_arrived = 0.0, total_time = 0.0;
  numerics::CompensatedSum queue_sum;
  std::size_t samples = 0;
  const double q_start = q;

  for (std::size_t b = 0; b < cfg.batches; ++b) {
    double lost = 0.0, arrived = 0.0, elapsed = 0.0;
    for (std::size_t n = 0; n < per_batch; ++n) {
      queue_sum.add(q);
      ++samples;
      step(lost, arrived, elapsed);
    }
    batch_loss[b] = arrived > 0.0 ? lost / arrived : 0.0;
    total_lost += lost;
    total_arrived += arrived;
    total_time += elapsed;
  }

  FluidSimResult result;
  result.arrived_work = total_arrived;
  result.lost_work = total_lost;
  result.loss_rate = total_arrived > 0.0 ? total_lost / total_arrived : 0.0;
  result.mean_queue = samples > 0 ? queue_sum.value() / static_cast<double>(samples) : 0.0;
  const double served = total_arrived - total_lost - (q - q_start);
  result.utilization_observed =
      total_time > 0.0 ? served / (service_rate * total_time) : 0.0;

  double mean_b = 0.0;
  for (double v : batch_loss) mean_b += v;
  mean_b /= static_cast<double>(cfg.batches);
  double var_b = 0.0;
  for (double v : batch_loss) var_b += (v - mean_b) * (v - mean_b);
  var_b /= static_cast<double>(cfg.batches - 1);
  result.loss_rate_stderr = std::sqrt(var_b / static_cast<double>(cfg.batches));
  if (!std::isfinite(result.loss_rate) || result.loss_rate < 0.0 || result.loss_rate > 1.0 ||
      !std::isfinite(result.mean_queue) || !std::isfinite(result.loss_rate_stderr)) {
    result.status = lrd::Status::failure(lrd::make_diagnostics(
        lrd::ErrorCategory::kNumericalGuard, "queueing.fluid_sim",
        "simulated loss rate is finite and in [0, 1]",
        "loss_rate = " + std::to_string(result.loss_rate)));
  }
  return result;
}

}  // namespace lrd::queueing
