#include "numerics/pmf.hpp"

#include <cmath>

#include "numerics/special_functions.hpp"

namespace lrd::numerics {

MassHealth inspect_mass(const std::vector<double>& probs) noexcept {
  MassHealth h;
  CompensatedSum acc;
  for (double p : probs) {
    if (!std::isfinite(p)) {
      h.finite = false;
      continue;
    }
    acc.add(p);
    if (p < h.min_entry) h.min_entry = p;
  }
  h.mass = acc.value();
  return h;
}

}  // namespace lrd::numerics
