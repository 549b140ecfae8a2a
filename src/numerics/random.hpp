// Deterministic, self-contained random number generation.
//
// xoshiro256++ core generator plus the samplers the traffic generators
// need. Every randomized component in the library takes an explicit seed so
// tests and benchmark figures are exactly reproducible.
#pragma once

#include <array>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace lrd::numerics {

/// xoshiro256++ PRNG (Blackman & Vigna). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1) with 53 bits of resolution.
  double uniform() noexcept;

  /// Uniform double in (0, 1) — never returns exactly 0 (safe for logs and
  /// inverse-transform sampling with poles at 0).
  double uniform_open() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n) (n >= 1), unbiased via rejection.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Standard normal via Box-Muller (cached second variate).
  double normal() noexcept;
  double normal(double mean, double stddev) noexcept;

  /// Exponential with given rate (mean 1/rate).
  double exponential(double rate) noexcept;

  /// Lognormal with parameters of the underlying normal.
  double lognormal(double mu_log, double sigma_log) noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Walker alias table for O(1) sampling from a finite discrete distribution.
class AliasTable {
 public:
  /// `weights` must be non-negative with a positive sum.
  explicit AliasTable(const std::vector<double>& weights);

  std::size_t sample(Rng& rng) const noexcept;
  std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::size_t> alias_;
};

/// Fisher-Yates in-place shuffle of indices [0, n); returns the permutation.
std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace lrd::numerics
