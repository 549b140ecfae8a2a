// Truncated Pareto epoch-length distribution (Eq. 6 of the paper):
//
//   Pr{T > t} = ((t + theta)/theta)^(-alpha)   for 0 <= t < T_c
//             = 0                               for t >= T_c
//
// The truncation places an atom of mass ((T_c + theta)/theta)^(-alpha)
// exactly at T_c. With T_c = infinity the fluid rate process is
// asymptotically second-order self-similar with Hurst parameter
// H = (3 - alpha)/2; a finite T_c kills all correlation beyond lag T_c.
#pragma once

#include "dist/epoch.hpp"

namespace lrd::dist {

class TruncatedPareto final : public EpochDistribution {
 public:
  /// theta > 0; alpha > 1 (the paper uses 1 < alpha < 2 so that the
  /// untruncated tail is heavy); cutoff > 0, possibly +infinity.
  TruncatedPareto(double theta, double alpha, double cutoff);

  double theta() const noexcept { return theta_; }
  double alpha() const noexcept { return alpha_; }
  double cutoff() const noexcept { return cutoff_; }

  /// Hurst parameter of the T_c = infinity limit: H = (3 - alpha)/2.
  double hurst() const noexcept { return (3.0 - alpha_) / 2.0; }

  /// Mass of the atom at T_c (0 when the cutoff is infinite).
  double atom_mass() const noexcept;

  double mean() const override;
  double variance() const override;
  double ccdf_open(double t) const override;
  double ccdf_closed(double t) const override;
  double excess_mean(double u) const override;
  /// One pow() per point in (0, T_c]: p = x^(-alpha) with x = (t + theta)
  /// / theta is both ccdfs (they differ only at t == T_c: open 0, closed
  /// the atom mass), and the excess is theta / (alpha - 1) * (x p - tail).
  /// x p is x^(1 - alpha) up to one rounding beyond pow's own, so with a
  /// pow within 0.52 ulp (glibc's) the excess differs from excess_mean(t)
  /// by at most 4 DBL_EPSILON * theta / (alpha - 1) * x^(1 - alpha).
  void tabulate(const double* t, std::size_t n, double* open, double* closed,
                double* excess) const override;
  double max_support() const override { return cutoff_; }
  double sample(numerics::Rng& rng) const override;

  /// alpha = 3 - 2H, valid for H in (1/2, 1).
  static double alpha_from_hurst(double hurst);

  /// Paper's calibration (Section III): choose theta so that the mean
  /// epoch length at T_c = infinity equals `mean_epoch`:
  /// theta = mean_epoch * (alpha - 1).
  static double theta_from_mean_epoch(double mean_epoch, double alpha);

 private:
  double theta_;
  double alpha_;
  double cutoff_;
  /// ((T_c + theta)/theta)^(1 - alpha), the cutoff term of excess_mean
  /// (0 when T_c is infinite); computed once, at construction.
  double excess_tail_ = 0.0;
};

}  // namespace lrd::dist
