#include "queueing/trace_queue_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/status.hpp"
#include "numerics/special_functions.hpp"
#include "obs/trace.hpp"

namespace lrd::queueing {

TraceSimResult simulate_trace_queue(const traffic::RateTrace& trace, double service_rate,
                                    double buffer) {
  auto bad = [](std::string invariant, std::string message) {
    return lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                                  "queueing.trace_sim", std::move(invariant),
                                                  std::move(message)));
  };
  if (!(service_rate > 0.0) || !std::isfinite(service_rate))
    throw bad("service rate is finite and > 0", "service_rate = " + std::to_string(service_rate));
  if (!(buffer > 0.0) || !std::isfinite(buffer))
    throw bad("buffer is finite and > 0", "buffer = " + std::to_string(buffer));

  obs::Span sim_span("sim.trace_queue", "sim");
  sim_span.annotate("bins", trace.size());

  const double delta = trace.bin_seconds();
  const double service_per_slot = service_rate * delta;

  double q = 0.0;
  numerics::CompensatedSum arrived, lost, queue_sum;
  double max_q = 0.0;
  std::size_t full_slots = 0, empty_slots = 0;

  for (std::size_t k = 0; k < trace.size(); ++k) {
    const double work = trace[k] * delta;
    arrived.add(work);
    const double u = q + work - service_per_slot;
    const double overflow = std::max(0.0, u - buffer);
    lost.add(overflow);
    q = std::clamp(u, 0.0, buffer);
    queue_sum.add(q);
    max_q = std::max(max_q, q);
    if (q >= buffer) ++full_slots;
    if (q <= 0.0) ++empty_slots;
  }

  TraceSimResult result;
  result.arrived_work = arrived.value();
  result.lost_work = lost.value();
  result.served_work = result.arrived_work - result.lost_work - q;
  result.loss_rate = result.arrived_work > 0.0 ? result.lost_work / result.arrived_work : 0.0;
  result.mean_queue = queue_sum.value() / static_cast<double>(trace.size());
  result.max_queue = max_q;
  result.full_fraction = static_cast<double>(full_slots) / static_cast<double>(trace.size());
  result.empty_fraction = static_cast<double>(empty_slots) / static_cast<double>(trace.size());
  if (!std::isfinite(result.loss_rate) || result.loss_rate < 0.0 || result.loss_rate > 1.0 ||
      !std::isfinite(result.mean_queue)) {
    result.status = lrd::Status::failure(lrd::make_diagnostics(
        lrd::ErrorCategory::kNumericalGuard, "queueing.trace_sim",
        "simulated loss rate is finite and in [0, 1]",
        "loss_rate = " + std::to_string(result.loss_rate) +
            ", mean_queue = " + std::to_string(result.mean_queue)));
  }
  return result;
}

TraceSimResult simulate_trace_queue_normalized(const traffic::RateTrace& trace,
                                               double utilization,
                                               double normalized_buffer_seconds) {
  auto bad = [](std::string invariant, std::string message) {
    return lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                                  "queueing.trace_sim", std::move(invariant),
                                                  std::move(message)));
  };
  if (!(utilization > 0.0 && utilization < 1.0))
    throw bad("utilization in (0, 1)", "utilization = " + std::to_string(utilization));
  if (!(normalized_buffer_seconds > 0.0) || !std::isfinite(normalized_buffer_seconds))
    throw bad("normalized buffer is finite and > 0",
              "normalized_buffer_seconds = " + std::to_string(normalized_buffer_seconds));
  const double c = trace.mean() / utilization;
  return simulate_trace_queue(trace, c, normalized_buffer_seconds * c);
}

}  // namespace lrd::queueing
