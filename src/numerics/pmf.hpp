// Health inspection of a probability vector: the one pass the solver's
// per-iteration guardrails run over each chain's occupancy pmf.
#pragma once

#include <vector>

namespace lrd::numerics {

/// Health summary of a raw mass vector — the numbers the solver's
/// per-iteration guardrails look at.
struct MassHealth {
  double mass = 0.0;       ///< Compensated sum of all entries.
  double min_entry = 0.0;  ///< Most negative entry (0 when none are negative).
  bool finite = true;      ///< False if any entry is NaN or +/-Inf.
};

/// Single-pass inspection of a mass vector.
MassHealth inspect_mass(const std::vector<double>& probs) noexcept;

}  // namespace lrd::numerics
