#include "obs/telemetry.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace lrd::obs {

std::string SolverTelemetry::to_json() const {
  using json::number_text;  // NaN/Inf become null: JSON has no literals for them
  std::string out = "{ \"total_seconds\": " + number_text(total_seconds) + ", \"levels\": [";
  char buf[96];
  for (std::size_t i = 0; i < levels.size(); ++i) {
    const LevelTelemetry& l = levels[i];
    out += i == 0 ? " " : ", ";
    std::snprintf(buf, sizeof buf, "{ \"bins\": %zu, \"iterations\": %zu", l.bins,
                  l.iterations);
    out += buf;
    out += ", \"bracket_lower\": " + number_text(l.bracket_lower);
    out += ", \"bracket_upper\": " + number_text(l.bracket_upper);
    out += ", \"bracket_width\": " + number_text(l.bracket_width());
    out += ", \"occupancy_gap\": " + number_text(l.occupancy_gap);
    out += ", \"mass_drift\": " + number_text(l.mass_drift);
    out += ", \"wall_seconds\": " + number_text(l.wall_seconds) + " }";
  }
  out += levels.empty() ? "] }" : " ] }";
  return out;
}

}  // namespace lrd::obs
