#include "numerics/fft.hpp"

#include <cmath>
#include <stdexcept>

#include "numerics/fft_plan.hpp"

namespace lrd::numerics {

std::size_t next_pow2(std::size_t n) {
  if (n == 0) throw std::invalid_argument("next_pow2: n must be >= 1");
  std::size_t p = 1;
  while (p < n) {
    if (p > (std::size_t{1} << 62)) throw std::overflow_error("next_pow2: overflow");
    p <<= 1;
  }
  return p;
}

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

void fft_inplace(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft_inplace: size must be a power of two");
  if (n == 1) return;
  // Route through the shared plan cache: callers repeating a size reuse
  // its twiddle and bit-reversal tables instead of recomputing the
  // on-the-fly twiddle recurrence (which also loses a few digits).
  const FftPlan& plan = fft_plan(n);
  if (inverse) {
    plan.inverse(data.data());
  } else {
    plan.forward(data.data());
  }
}

bool all_finite(const std::vector<double>& x) noexcept {
  for (double v : x)
    if (!std::isfinite(v)) return false;
  return true;
}

}  // namespace lrd::numerics
