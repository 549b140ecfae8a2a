// Shared driver for the model-side loss surfaces (Figs. 4 and 5):
// loss rate vs (normalized buffer size, cutoff lag) for a trace model.
#pragma once

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/traces.hpp"

namespace lrd::bench {

inline int run_model_surface(const core::TraceModel& model, const char* figure,
                             const FigureOptions& fo = {}) {
  print_header(figure, std::string("model loss surface for the ") + model.name +
                           " trace (utilization " + std::to_string(model.utilization) + ")");

  core::ModelSweepConfig cfg;
  cfg.hurst = model.hurst;
  cfg.mean_epoch = model.mean_epoch;
  cfg.utilization = model.utilization;
  cfg.solver.target_relative_gap = 0.2;   // the paper's 20% criterion
  cfg.solver.max_bins = 1 << 12;

  const std::vector<double> buffers{0.01, 0.05, 0.2, 1.0, 5.0};
  const std::vector<double> cutoffs{0.1, 1.0, 10.0, 100.0, 1000.0};

  Stopwatch watch;
  auto table = core::loss_vs_buffer_and_cutoff(model.marginal, cfg, buffers, cutoffs, fo.sweep);
  table.title = std::string(figure) + ": loss rate, " + model.name +
                " marginal, rows = normalized buffer (s), cols = cutoff lag (s)";
  print_table(table);
  std::printf("elapsed: %.2f s\n\n", watch.seconds());
  finish_manifest(fo, table, figure);

  bool ok = true;
  // Correlation horizon: for the smallest buffer, the last cutoff doubling
  // moves the loss by < 25%, while an early doubling moves it much more.
  {
    const double late = table.at(0, 4) / std::max(table.at(0, 3), 1e-300);
    ok &= check("small buffer: loss plateaus at long cutoffs (CH exists)",
                late < 1.25);
  }
  // Loss is monotone increasing in the cutoff for every buffer.
  {
    bool mono = true;
    for (std::size_t r = 0; r < buffers.size(); ++r)
      for (std::size_t c = 1; c < cutoffs.size(); ++c)
        mono &= table.at(r, c) >= table.at(r, c - 1) * 0.9 - 1e-12;
    ok &= check("loss increases with cutoff lag", mono);
  }
  // Loss is monotone decreasing in the buffer for every cutoff. The
  // tolerance (1.25) reflects the solver's 20% bracket criterion: two
  // nearly equal plateau values may individually wobble by that much.
  {
    bool mono = true;
    for (std::size_t c = 0; c < cutoffs.size(); ++c)
      for (std::size_t r = 1; r < buffers.size(); ++r)
        mono &= table.at(r, c) <= table.at(r - 1, c) * 1.25 + 1e-12;
    ok &= check("loss decreases with buffer size", mono);
  }
  // Buffer ineffectiveness: at the longest cutoff, growing the buffer from
  // 0.2 s to 5 s gains less (relatively) than at the shortest cutoff. A
  // 5 s cell that reports zero loss is buffering that works: its gain is
  // unbounded, and the summary line says so rather than print a ratio.
  {
    const auto gain = [&](std::size_t c) {
      return table.at(4, c) > 0.0 ? table.at(2, c) / table.at(4, c)
                                  : std::numeric_limits<double>::infinity();
    };
    const auto describe = [&](std::size_t c) {
      char buf[96];
      const double g = gain(c);
      if (std::isinf(g))
        std::snprintf(buf, sizeof buf, "the 5s cell reports zero loss at T_c=%gs", cutoffs[c]);
      else
        std::snprintf(buf, sizeof buf, "loss ratio %.2e at T_c=%gs", g, cutoffs[c]);
      return std::string(buf);
    };
    ok &= check("buffering is less effective under long-range correlation", gain(4) < gain(0));
    std::printf("       (buffer 0.2s -> 5s: %s vs %s)\n", describe(0).c_str(),
                describe(4).c_str());
  }
  return ok ? 0 : 1;
}

}  // namespace lrd::bench
