#include "queueing/markov_fluid.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "numerics/linalg.hpp"
#include "numerics/random.hpp"
#include "numerics/special_functions.hpp"

namespace lrd::queueing {

namespace {

/// Sign of det(A - z I) for the tridiagonal A given by (sub, diag, sup),
/// evaluated with rescaling so it never over/underflows.
double char_poly_sign(const std::vector<double>& sub, const std::vector<double>& diag,
                      const std::vector<double>& sup, double z) {
  double p_prev = 1.0;
  double p = diag[0] - z;
  for (std::size_t i = 1; i < diag.size(); ++i) {
    const double p_next = (diag[i] - z) * p - sub[i] * sup[i - 1] * p_prev;
    p_prev = p;
    p = p_next;
    const double scale = std::max(std::abs(p), std::abs(p_prev));
    if (scale > 1e100 || (scale < 1e-100 && scale > 0.0)) {
      p /= scale;
      p_prev /= scale;
    }
  }
  return p;
}

}  // namespace

BirthDeathFluidSpec BirthDeathFluidSpec::from_onoff(const OnOffFluidSpec& spec) {
  if (spec.sources == 0) throw std::invalid_argument("BirthDeathFluidSpec: need >= 1 source");
  BirthDeathFluidSpec bd;
  const std::size_t n = spec.sources;
  bd.rates.resize(n + 1);
  bd.up.resize(n + 1, 0.0);
  bd.down.resize(n + 1, 0.0);
  for (std::size_t i = 0; i <= n; ++i) {
    bd.rates[i] = static_cast<double>(i) * spec.rate_on;
    bd.up[i] = static_cast<double>(n - i) * spec.lambda_on;
    bd.down[i] = static_cast<double>(i) * spec.lambda_off;
  }
  bd.service = spec.service;
  return bd;
}

std::vector<double> BirthDeathFluidSpec::stationary() const {
  const std::size_t k = rates.size();
  std::vector<double> pi(k, 0.0);
  // Detailed balance: pi_{i+1} = pi_i up[i] / down[i+1]; work in logs for
  // stability with many states.
  std::vector<double> log_pi(k, 0.0);
  for (std::size_t i = 0; i + 1 < k; ++i)
    log_pi[i + 1] = log_pi[i] + std::log(up[i]) - std::log(down[i + 1]);
  const double peak = *std::max_element(log_pi.begin(), log_pi.end());
  double total = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    pi[i] = std::exp(log_pi[i] - peak);
    total += pi[i];
  }
  for (double& p : pi) p /= total;
  return pi;
}

double BirthDeathFluidSpec::mean_rate() const {
  const auto pi = stationary();
  double m = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) m += pi[i] * rates[i];
  return m;
}

MarkovFluidQueue::MarkovFluidQueue(const OnOffFluidSpec& spec)
    : MarkovFluidQueue(BirthDeathFluidSpec::from_onoff([&] {
        if (spec.sources == 0)
          throw std::invalid_argument("MarkovFluidQueue: need >= 1 source");
        if (!(spec.rate_on > 0.0) || !(spec.lambda_on > 0.0) || !(spec.lambda_off > 0.0) ||
            !(spec.service > 0.0))
          throw std::invalid_argument("MarkovFluidQueue: rates must be > 0");
        return spec;
      }())) {}

MarkovFluidQueue::MarkovFluidQueue(BirthDeathFluidSpec spec) : spec_(std::move(spec)) {
  const std::size_t k = spec_.states();
  if (k < 2) throw std::invalid_argument("MarkovFluidQueue: need >= 2 states");
  if (spec_.up.size() != k || spec_.down.size() != k)
    throw std::invalid_argument("MarkovFluidQueue: up/down size mismatch");
  if (!(spec_.service > 0.0))
    throw std::invalid_argument("MarkovFluidQueue: service rate must be > 0");
  for (std::size_t i = 0; i < k; ++i) {
    if (!(spec_.rates[i] >= 0.0))
      throw std::invalid_argument("MarkovFluidQueue: rates must be >= 0");
    if (i + 1 < k && !(spec_.up[i] > 0.0))
      throw std::invalid_argument("MarkovFluidQueue: up rates must be > 0 (irreducibility)");
    if (i >= 1 && !(spec_.down[i] > 0.0))
      throw std::invalid_argument("MarkovFluidQueue: down rates must be > 0 (irreducibility)");
  }
  spec_.up[k - 1] = 0.0;
  spec_.down[0] = 0.0;

  drifts_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    drifts_[i] = spec_.rates[i] - spec_.service;
    if (std::abs(drifts_[i]) < 1e-12 * spec_.service)
      throw std::invalid_argument(
          "MarkovFluidQueue: state with zero drift (rate == c); perturb the service rate");
  }
  state_probs_ = spec_.stationary();
  compute_spectrum();
}

void MarkovFluidQueue::compute_spectrum() {
  const std::size_t dim = spec_.states();

  // Tridiagonal A = D^{-1} M^T for the birth-death generator:
  //   sub[i]  = up[i-1] / d_i,  diag[i] = -(up[i] + down[i]) / d_i,
  //   sup[i]  = down[i+1] / d_i.
  std::vector<double> sub(dim, 0.0), diag(dim, 0.0), sup(dim, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    diag[i] = -(spec_.up[i] + spec_.down[i]) / drifts_[i];
    if (i >= 1) sub[i] = spec_.up[i - 1] / drifts_[i];
    if (i + 1 < dim) sup[i] = spec_.down[i + 1] / drifts_[i];
  }

  // Gershgorin interval.
  double radius = 0.0;
  for (std::size_t i = 0; i < dim; ++i)
    radius = std::max(radius, std::abs(diag[i]) + std::abs(sub[i]) + std::abs(sup[i]));
  const double lo = -radius - 1.0, hi = radius + 1.0;

  // Birth-death chains are reversible, so the spectrum is real; find the
  // eigenvalues as sign changes of the characteristic polynomial,
  // refining the scan until all are located.
  std::vector<double> roots;
  for (std::size_t points = 64 * dim; points <= 65536 * dim; points *= 4) {
    roots.clear();
    double prev_z = lo;
    double prev_s = char_poly_sign(sub, diag, sup, lo);
    for (std::size_t k = 1; k <= points; ++k) {
      const double z = lo + (hi - lo) * static_cast<double>(k) / static_cast<double>(points);
      const double s = char_poly_sign(sub, diag, sup, z);
      if (s == 0.0) {
        roots.push_back(z);
      } else if (prev_s != 0.0 && std::signbit(s) != std::signbit(prev_s)) {
        double a = prev_z, b = z;
        for (int it = 0; it < 200 && (b - a) > 1e-15 * std::max(1.0, std::abs(a)); ++it) {
          const double mid = (a + b) / 2.0;
          const double sm = char_poly_sign(sub, diag, sup, mid);
          if (sm == 0.0) {
            a = b = mid;
            break;
          }
          if (std::signbit(sm) == std::signbit(prev_s)) {
            a = mid;
          } else {
            b = mid;
          }
        }
        roots.push_back((a + b) / 2.0);
      }
      prev_z = z;
      prev_s = s;
    }
    if (roots.size() == dim) break;
  }
  if (roots.size() != dim)
    throw std::domain_error("MarkovFluidQueue: eigenvalue search failed (nearly degenerate "
                            "spectrum); perturb the parameters");
  std::sort(roots.begin(), roots.end());

  // Snap the root nearest zero to exactly zero (the generator's null space).
  std::size_t zero_idx = 0;
  for (std::size_t k = 1; k < dim; ++k)
    if (std::abs(roots[k]) < std::abs(roots[zero_idx])) zero_idx = k;
  roots[zero_idx] = 0.0;
  eigenvalues_ = roots;

  // Eigenvectors by the tridiagonal forward recurrence; the z = 0 vector
  // is the stationary distribution (exact and well conditioned).
  eigenvectors_.assign(dim, std::vector<double>(dim, 0.0));
  for (std::size_t k = 0; k < dim; ++k) {
    if (eigenvalues_[k] == 0.0) {
      eigenvectors_[k] = state_probs_;
      continue;
    }
    auto& phi = eigenvectors_[k];
    const double z = eigenvalues_[k];
    phi[0] = 1.0;
    if (dim > 1) phi[1] = -(diag[0] - z) / sup[0];
    for (std::size_t i = 1; i + 1 < dim; ++i)
      phi[i + 1] = -(sub[i] * phi[i - 1] + (diag[i] - z) * phi[i]) / sup[i];
    // Normalize to unit max-abs for conditioning.
    double m = 0.0;
    for (double v : phi) m = std::max(m, std::abs(v));
    for (double& v : phi) v /= m;
  }
}

MarkovFluidQueue::FiniteBufferResult MarkovFluidQueue::finite_buffer(double buffer) const {
  if (!(buffer > 0.0)) throw std::invalid_argument("finite_buffer: buffer must be > 0");
  const std::size_t dim = spec_.states();

  // Conditioned basis g_k(x) = exp(z_k (x - ref_k)), ref_k = B for z_k > 0.
  auto basis = [&](std::size_t k, double x) {
    const double z = eigenvalues_[k];
    return std::exp(z * (x - (z > 0.0 ? buffer : 0.0)));
  };

  numerics::Matrix a(dim, dim);
  std::vector<double> b(dim, 0.0);
  std::size_t row = 0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (drifts_[i] > 0.0) {
      for (std::size_t k = 0; k < dim; ++k) a(row, k) = eigenvectors_[k][i] * basis(k, 0.0);
      b[row] = 0.0;  // F_i(0) = 0 in up-drift states
      ++row;
    }
  }
  for (std::size_t i = 0; i < dim; ++i) {
    if (drifts_[i] < 0.0) {
      for (std::size_t k = 0; k < dim; ++k) a(row, k) = eigenvectors_[k][i] * basis(k, buffer);
      b[row] = state_probs_[i];  // F_i(B) = p_i in down-drift states
      ++row;
    }
  }
  const auto coef = numerics::solve_linear_system(std::move(a), std::move(b));

  auto cdf_at = [&](std::size_t i, double x) {
    double f = 0.0;
    for (std::size_t k = 0; k < dim; ++k) f += coef[k] * eigenvectors_[k][i] * basis(k, x);
    return f;
  };

  FiniteBufferResult result;
  result.full_atoms.assign(dim, 0.0);
  result.empty_atoms.assign(dim, 0.0);
  double loss_per_time = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    if (drifts_[i] > 0.0) {
      result.full_atoms[i] = std::max(0.0, state_probs_[i] - cdf_at(i, buffer));
      loss_per_time += drifts_[i] * result.full_atoms[i];
    } else {
      result.empty_atoms[i] = std::max(0.0, cdf_at(i, 0.0));
    }
  }
  result.loss_rate = loss_per_time / spec_.mean_rate();

  // E[Q] = int_0^B (1 - sum_i F_i(x)) dx.
  double integral = 0.0;
  for (std::size_t k = 0; k < dim; ++k) {
    double s = 0.0;
    for (double v : eigenvectors_[k]) s += v;
    const double z = eigenvalues_[k];
    double basis_integral;
    if (z == 0.0) {
      basis_integral = buffer;
    } else if (z > 0.0) {
      basis_integral = (1.0 - std::exp(-z * buffer)) / z;
    } else {
      basis_integral = (std::exp(z * buffer) - 1.0) / z;
    }
    integral += coef[k] * s * basis_integral;
  }
  result.mean_queue = std::clamp(buffer - integral, 0.0, buffer);
  return result;
}

MarkovFluidSimResult simulate_markov_fluid(const BirthDeathFluidSpec& spec, double buffer,
                                           std::size_t transitions, std::uint64_t seed) {
  if (!(buffer > 0.0)) throw std::invalid_argument("simulate_markov_fluid: buffer must be > 0");
  if (transitions == 0) throw std::invalid_argument("simulate_markov_fluid: need transitions");
  const std::size_t dim = spec.states();
  if (dim < 2 || spec.up.size() != dim || spec.down.size() != dim)
    throw std::invalid_argument("simulate_markov_fluid: malformed spec");

  numerics::Rng rng(seed);
  // Start from the stationary state distribution.
  const auto pi = spec.stationary();
  std::size_t state = 0;
  {
    double u = rng.uniform();
    for (std::size_t i = 0; i < dim; ++i) {
      if (u < pi[i]) {
        state = i;
        break;
      }
      u -= pi[i];
      state = i;
    }
  }

  double q = 0.0;
  numerics::CompensatedSum lost, arrived, q_time;
  double elapsed = 0.0;
  for (std::size_t step = 0; step < transitions; ++step) {
    const double up_rate = state + 1 < dim ? spec.up[state] : 0.0;
    const double down_rate = state >= 1 ? spec.down[state] : 0.0;
    const double hold = rng.exponential(up_rate + down_rate);
    const double drift = spec.rates[state] - spec.service;

    arrived.add(spec.rates[state] * hold);
    // Piecewise-linear occupancy with clamping at 0 and B; integrate and
    // account the overflow exactly.
    if (drift > 0.0) {
      const double t_fill = (buffer - q) / drift;
      if (hold <= t_fill) {
        q_time.add(q * hold + drift * hold * hold / 2.0);
        q += drift * hold;
      } else {
        q_time.add(q * t_fill + drift * t_fill * t_fill / 2.0 + buffer * (hold - t_fill));
        lost.add(drift * (hold - t_fill));
        q = buffer;
      }
    } else if (drift < 0.0) {
      const double t_empty = q / (-drift);
      if (hold <= t_empty) {
        q_time.add(q * hold + drift * hold * hold / 2.0);
        q += drift * hold;
      } else {
        q_time.add(q * t_empty + drift * t_empty * t_empty / 2.0);
        q = 0.0;
      }
    } else {
      q_time.add(q * hold);
    }
    elapsed += hold;
    const bool go_up = rng.uniform() * (up_rate + down_rate) < up_rate;
    state = go_up ? state + 1 : state - 1;
  }

  MarkovFluidSimResult result;
  result.loss_rate = arrived.value() > 0.0 ? lost.value() / arrived.value() : 0.0;
  result.mean_queue = elapsed > 0.0 ? q_time.value() / elapsed : 0.0;
  return result;
}

MarkovFluidSimResult simulate_markov_fluid(const OnOffFluidSpec& spec, double buffer,
                                           std::size_t transitions, std::uint64_t seed) {
  return simulate_markov_fluid(BirthDeathFluidSpec::from_onoff(spec), buffer, transitions,
                               seed);
}

}  // namespace lrd::queueing
