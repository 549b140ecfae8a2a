#include "numerics/random.hpp"

#include <cmath>
#include <numbers>
#include <numeric>
#include <stdexcept>

namespace lrd::numerics {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) noexcept { return (x << k) | (x >> (64 - k)); }

// splitmix64, used to expand the seed into the xoshiro state.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
  // Avoid the all-zero state (cannot happen with splitmix64, but cheap to
  // guarantee).
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

double Rng::uniform_open() noexcept {
  double u;
  do {
    u = uniform();
  } while (u == 0.0);
  return u;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  if (n == 0) return 0;
  const std::uint64_t threshold = (~n + 1) % n;  // == 2^64 mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

double Rng::normal() noexcept {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  const double u1 = uniform_open();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

double Rng::exponential(double rate) noexcept { return -std::log(uniform_open()) / rate; }

double Rng::lognormal(double mu_log, double sigma_log) noexcept {
  return std::exp(normal(mu_log, sigma_log));
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  if (weights.empty()) throw std::invalid_argument("AliasTable: empty weights");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (!(total > 0.0)) throw std::invalid_argument("AliasTable: zero total weight");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::size_t> small, large;
  for (std::size_t i = 0; i < n; ++i) (scaled[i] < 1.0 ? small : large).push_back(i);

  while (!small.empty() && !large.empty()) {
    const std::size_t s = small.back();
    small.pop_back();
    const std::size_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::size_t i : large) prob_[i] = 1.0;
  for (std::size_t i : small) prob_[i] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Rng& rng) const noexcept {
  const std::size_t i = static_cast<std::size_t>(rng.below(prob_.size()));
  return rng.uniform() < prob_[i] ? i : alias_[i];
}

std::vector<std::size_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace lrd::numerics
