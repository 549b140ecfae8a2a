// Secondary performance metrics derived from the solver's stationary
// occupancy bounds.
//
// The solver produces two pmfs over {0, d, ..., B} that stochastically
// bracket the occupancy at arrival epochs (Q_L <=st Q <=st Q_H). Any
// monotone functional of the occupancy therefore comes with rigorous
// lower/upper bounds: occupancy quantiles, the queueing-delay
// distribution Q / c, and the tail curve Pr{Q >= j d}.
#pragma once

#include <cstddef>
#include <vector>

#include "queueing/solver.hpp"

namespace lrd::queueing {

struct BoundedValue {
  double lower = 0.0;
  double upper = 0.0;
  double mid() const noexcept { return (lower + upper) / 2.0; }
};

/// Smallest occupancy q with Pr{Q <= q} >= p, bracketed. p in (0, 1].
BoundedValue occupancy_quantile(const SolverResult& result, double buffer, double p);

/// Queueing-delay quantile in seconds: occupancy quantile / service rate.
BoundedValue delay_quantile(const SolverResult& result, double buffer, double service_rate,
                            double p);

/// Full complementary distribution Pr{Q >= j d} for j = 0..M, as
/// (lower, upper) vectors — convenient for plotting tail curves.
struct OccupancyTail {
  double step = 0.0;
  std::vector<double> lower;
  std::vector<double> upper;
};
OccupancyTail occupancy_tail(const SolverResult& result, double buffer);

}  // namespace lrd::queueing
