// Spectral (Anick-Mitra-Sondhi) solution of the Markov-modulated fluid
// queue fed by N homogeneous exponential on/off sources.
//
// This is the classical "Markovian alternative" the paper discusses in
// Section IV. The modulating chain is birth-death on {0..N} (number of
// sources on); the joint cdfs F_i(x) = Pr{state = i, Q <= x} satisfy
//   D dF/dx = M^T F,   D = diag(i r - c),  M = birth-death generator,
// whose solutions are sums of e^{z x} phi along the generalized
// eigenpairs z D phi = M^T phi. For the finite buffer the coefficients
// come from the empty/full boundary conditions, and the loss rate from
// the probability atoms at Q = B in the up-drift states.
//
// A renewal source with exponential epochs and a two-point {0, r}
// marginal is path-identical to a single on/off CTMC source
// (self-loops do not change the law), so this solver exactly
// cross-validates the paper's discretized solver — see the tests and
// bench/ablation_ams_vs_renewal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lrd::queueing {

struct OnOffFluidSpec {
  std::size_t sources = 1;  // N
  double rate_on = 1.0;     // fluid rate of one source while on (Mb/s)
  double lambda_on = 1.0;   // off -> on transition rate (1/s)
  double lambda_off = 1.0;  // on -> off transition rate (1/s)
  double service = 1.0;     // c (Mb/s)

  double p_on() const { return lambda_on / (lambda_on + lambda_off); }
  double mean_rate() const { return static_cast<double>(sources) * rate_on * p_on(); }
  double utilization() const { return mean_rate() / service; }
};

/// General birth-death modulated fluid queue: state i in {0..K} emits
/// fluid at rates[i]; transitions i -> i+1 at up[i] and i -> i-1 at
/// down[i]. Covers the homogeneous on/off aggregate (AMS), Maglaris-style
/// minisource video models, and arbitrary birth-death MMFP sources.
/// Birth-death chains are reversible, so the spectral problem has a real
/// spectrum and the same machinery applies.
struct BirthDeathFluidSpec {
  std::vector<double> rates;  // per-state fluid rate, size K+1
  std::vector<double> up;     // up[i] = rate i -> i+1, up[K] ignored
  std::vector<double> down;   // down[i] = rate i -> i-1, down[0] ignored
  double service = 1.0;

  static BirthDeathFluidSpec from_onoff(const OnOffFluidSpec& spec);

  std::size_t states() const { return rates.size(); }
  /// Stationary distribution via detailed balance.
  std::vector<double> stationary() const;
  double mean_rate() const;
  double utilization() const { return mean_rate() / service; }
};

class MarkovFluidQueue {
 public:
  /// Throws std::invalid_argument on bad parameters or when some state
  /// has exactly zero drift (i r = c; perturb c slightly).
  explicit MarkovFluidQueue(const OnOffFluidSpec& spec);

  /// General birth-death construction (same zero-drift restriction).
  explicit MarkovFluidQueue(BirthDeathFluidSpec spec);

  const BirthDeathFluidSpec& spec() const noexcept { return spec_; }

  /// Eigenvalues z_k of the spectral problem (N + 1 of them, all real;
  /// one is ~0). Sorted ascending. Exposed for tests.
  const std::vector<double>& eigenvalues() const noexcept { return eigenvalues_; }

  /// Stationary state probabilities (binomial).
  const std::vector<double>& state_probabilities() const noexcept { return state_probs_; }

  struct FiniteBufferResult {
    double loss_rate = 0.0;   // lost work / arrived work
    double mean_queue = 0.0;  // time-stationary E[Q]
    /// Probability atoms at Q = B per state (nonzero in up-drift states).
    std::vector<double> full_atoms;
    /// Probability atoms at Q = 0 per state (nonzero in down-drift states).
    std::vector<double> empty_atoms;
  };

  /// Finite buffer of size B (Mb). Works for any utilization.
  FiniteBufferResult finite_buffer(double buffer) const;

 private:
  BirthDeathFluidSpec spec_;
  std::vector<double> drifts_;       // d_i = rates[i] - c
  std::vector<double> state_probs_;  // stationary distribution of the chain
  std::vector<double> eigenvalues_;  // ascending, one ~0
  // eigenvectors_[k][i]: component i of the eigenvector for z_k.
  std::vector<std::vector<double>> eigenvectors_;

  void compute_spectrum();
};

/// Monte-Carlo cross-check: simulates the exact CTMC-modulated fluid
/// queue with buffer B over `transitions` state holding times and returns
/// (loss rate, time-average queue). Deterministic in `seed`.
struct MarkovFluidSimResult {
  double loss_rate = 0.0;
  double mean_queue = 0.0;
};
MarkovFluidSimResult simulate_markov_fluid(const OnOffFluidSpec& spec, double buffer,
                                           std::size_t transitions, std::uint64_t seed);
MarkovFluidSimResult simulate_markov_fluid(const BirthDeathFluidSpec& spec, double buffer,
                                           std::size_t transitions, std::uint64_t seed);

}  // namespace lrd::queueing
