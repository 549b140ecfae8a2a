#include "queueing/occupancy.hpp"

#include <algorithm>
#include <stdexcept>

#include "numerics/special_functions.hpp"

namespace lrd::queueing {

namespace {

double quantile_of(const std::vector<double>& q, double step, double p) {
  numerics::CompensatedSum acc;
  for (std::size_t j = 0; j < q.size(); ++j) {
    acc.add(q[j]);
    if (acc.value() >= p - 1e-12) return static_cast<double>(j) * step;
  }
  return static_cast<double>(q.size() - 1) * step;
}

void validate(const SolverResult& result, double buffer) {
  if (result.occupancy_lower.empty() || result.occupancy_upper.empty())
    throw std::invalid_argument("occupancy: solver result carries no distributions");
  if (result.occupancy_lower.size() != result.occupancy_upper.size())
    throw std::invalid_argument("occupancy: mismatched bound distributions");
  if (!(buffer > 0.0)) throw std::invalid_argument("occupancy: buffer must be > 0");
}

}  // namespace

BoundedValue occupancy_quantile(const SolverResult& result, double buffer, double p) {
  validate(result, buffer);
  if (!(p > 0.0 && p <= 1.0))
    throw std::invalid_argument("occupancy_quantile: p must be in (0, 1]");
  const double step = buffer / static_cast<double>(result.occupancy_lower.size() - 1);
  return BoundedValue{quantile_of(result.occupancy_lower, step, p),
                      quantile_of(result.occupancy_upper, step, p)};
}

BoundedValue delay_quantile(const SolverResult& result, double buffer, double service_rate,
                            double p) {
  if (!(service_rate > 0.0))
    throw std::invalid_argument("delay_quantile: service rate must be > 0");
  auto q = occupancy_quantile(result, buffer, p);
  return BoundedValue{q.lower / service_rate, q.upper / service_rate};
}

OccupancyTail occupancy_tail(const SolverResult& result, double buffer) {
  validate(result, buffer);
  const std::size_t points = result.occupancy_lower.size();
  OccupancyTail tail;
  tail.step = buffer / static_cast<double>(points - 1);
  tail.lower.resize(points);
  tail.upper.resize(points);
  double cl = 0.0, cu = 0.0;
  for (std::size_t j = points; j-- > 0;) {
    cl += result.occupancy_lower[j];
    cu += result.occupancy_upper[j];
    tail.lower[j] = std::min(1.0, cl);
    tail.upper[j] = std::min(1.0, cu);
  }
  return tail;
}

}  // namespace lrd::queueing
