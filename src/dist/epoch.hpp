// Interface for epoch-length (interarrival-time) distributions.
//
// The paper's source model holds the fluid rate constant over epochs whose
// lengths T_n are i.i.d. with ccdf F_T. Section II develops the queue
// solver for a truncated Pareto F_T, but notes that "the numerical
// procedure ... can be used independent of the particular model". This
// interface is that seam: the solver, the covariance function (Eq. 3-5) and
// the loss kernel (Eq. 14) only need the quantities below.
//
// Conventions for distributions with atoms (the truncated Pareto has an
// atom at T_c):
//   ccdf_open(t)   = Pr{T >  t}   (right-continuous ccdf)
//   ccdf_closed(t) = Pr{T >= t}   (left limit; differs at atoms)
// Both are 1 for t <= 0 since epochs are strictly positive. tabulate
// returns both and the excess mean at many t in one call: the queue
// solver's level build needs, per rate, the open ccdf (for w_H), the
// closed one (for w_L) and, for a rate above c, the excess mean (for the
// overflow kernel) at the same points, and a law whose three share an
// expensive part computes it once per point.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>

#include "numerics/random.hpp"

namespace lrd::dist {

class EpochDistribution {
 public:
  virtual ~EpochDistribution() = default;

  /// E[T]; must be finite and > 0.
  virtual double mean() const = 0;

  /// Var[T]; must be finite (required by the correlation-horizon formula).
  virtual double variance() const = 0;

  /// Pr{T > t}.
  virtual double ccdf_open(double t) const = 0;

  /// Pr{T >= t}.
  virtual double ccdf_closed(double t) const = 0;

  /// Excess mean E[(T - u)^+] = integral_u^inf Pr{T > t} dt, u >= 0.
  /// This single functional yields both the autocovariance of the fluid
  /// rate (phi(t) = sigma^2 * excess_mean(t) / mean(), Eq. 3-5) and the
  /// overflow kernel E[W_l | Q] (Eq. 14).
  virtual double excess_mean(double u) const = 0;

  /// Pr{T > t[k]}, Pr{T >= t[k]} and E[(T - t[k])^+] for k < n, into
  /// open[k], closed[k] and excess[k]; each t[k] >= 0. A null output is
  /// not computed. The ccdfs equal the single calls bit for bit; the
  /// excess equals excess_mean(t[k]) up to the bound an override states.
  /// The default makes the single calls, so all three are theirs.
  virtual void tabulate(const double* t, std::size_t n, double* open, double* closed,
                        double* excess) const {
    for (std::size_t k = 0; k < n; ++k) {
      if (open) open[k] = ccdf_open(t[k]);
      if (closed) closed[k] = ccdf_closed(t[k]);
      if (excess) excess[k] = excess_mean(t[k]);
    }
  }

  /// Essential supremum of T; +infinity when unbounded.
  virtual double max_support() const = 0;

  /// Draws one epoch length.
  virtual double sample(numerics::Rng& rng) const = 0;

  /// Pr{residual life >= t} = excess_mean(t) / mean()  (Eq. 5).
  double residual_ccdf(double t) const {
    if (t <= 0.0) return 1.0;
    return excess_mean(t) / mean();
  }
};

using EpochPtr = std::shared_ptr<const EpochDistribution>;

}  // namespace lrd::dist
