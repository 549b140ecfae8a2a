// solve_tight: a fixed list of tight cells (gap 0.02, max_bins 16384),
// each run sequentially as its own lrdq_solve process — the cost a CLI
// user pays, process start included, with no cache. Every cell converges
// at >= 1024 final bins, so every refined level runs the split-layout
// fold.
#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/traces.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace lrd::perfbench {

namespace {

constexpr double kGap = 0.02;
constexpr std::size_t kMaxBins = 1 << 14;
constexpr std::size_t kMinFinalBins = 1024;
constexpr int kSetups = 5;

std::vector<Cell> tight_cells() {
  // The lrdq_solve example marginal at the CLI's model defaults, and the
  // MTV trace marginal at its figure parameters. Each (buffer, cutoff)
  // converges at 1024 to 8192 bins, 30 ms to 0.7 s in process on a
  // 4-CPU x86-64 host.
  const dist::Marginal three({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const core::TraceModel mtv = core::mtv_model();
  std::vector<Cell> cells;
  for (const auto& [b, tc] : std::vector<std::pair<double, double>>{
           {0.5, 10}, {0.5, 100}, {0.75, 100}, {1, 10}, {1, 100}, {1, 1000},
           {1.5, 100}, {1.5, 1000}, {2, 10}, {2, 1000}})
    cells.push_back(make_cell(three, 0.85, 0.05, 0.8, b, tc, kGap, kMaxBins));
  cells.push_back(make_cell(mtv.marginal, mtv.hurst, mtv.mean_epoch, mtv.utilization, 2.0, 10.0,
                            kGap, kMaxBins));
  return cells;
}

}  // namespace

Outcome run_solve_tight(const Options& opt) {
  Outcome out;
  std::vector<double> setups;
  std::vector<Cell> cells;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    cells = tight_cells();
    // Warm-up: one lrdq_solve process that solves nothing, so the
    // binary and its loader pages are cached. Each measured process
    // builds its own FFT plans, as a CLI user's does.
    const ChildExit warm = run_child({opt.tools_dir + "/lrdq_solve", "--version"});
    if (warm.code != 0) throw std::runtime_error("lrdq_solve --version exited " + std::to_string(warm.code));
    setups.push_back(seconds_since(t0));
  }

  std::mt19937_64 rng(opt.seed);
  // One window per pass over the cell list.
  std::vector<std::vector<double>> walls;
  std::vector<std::string> printed(cells.size());
  std::vector<std::vector<double>> cpu;  // child user + system seconds
  double peak_rss = 0.0;
  const Clock::time_point start = Clock::now();
  // Whole passes only, so every cell weighs the same in the quantiles.
  while (walls.empty() || seconds_since(start) < opt.seconds) {
    std::vector<std::size_t> order(cells.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    walls.emplace_back();
    cpu.emplace_back();
    for (std::size_t i : order) {
      const ChildExit e = run_child(solve_argv(opt, cells[i]));
      walls.back().push_back(e.wall_seconds);
      cpu.back().push_back(e.cpu_seconds);
      peak_rss = std::max(peak_rss, e.max_rss_mb);
      std::string loss;
      std::size_t bins = 0;
      bool converged = false;
      const bool parsed = parse_solve_output(e.out, loss, bins, converged);
      std::string why;
      if (e.code != 0) why = "exit " + std::to_string(e.code);
      else if (!parsed || !converged) why = "not converged";
      else if (bins < kMinFinalBins) why = "converged at " + std::to_string(bins) + " bins";
      else if (printed[i].empty()) printed[i] = loss;
      else if (printed[i] != loss) why = "estimate changed between runs";
      out.record(why.empty(), "cell " + std::to_string(i) + ": " + why);
    }
  }

  // Each cell's printed estimate matches the in-process solve.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto res = core::FluidModel(cells[i].marginal, cells[i].model).solve(cells[i].solver);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6e", res.loss_estimate());
    if (!printed[i].empty() && printed[i] != buf)
      out.problems.push_back("cell " + std::to_string(i) + ": lrdq_solve printed " + printed[i] +
                             ", in process " + buf);
  }

  // p90 of an 11-cell pass falls inside its second-slowest cell.
  const double tail = 0.9;
  const std::size_t n = sample_count(walls);
  out.add("setup_s", median(setups), "s", setups.size(), MetricKind::kEndToEnd);
  out.add("cpu_ms_per_op", windowed_quantile(cpu, 0.5) * 1e3, "ms", n, MetricKind::kEndToEnd);
  out.add("peak_rss_mb", peak_rss, "MB", n, MetricKind::kEndToEnd);
  out.add("solve_p50_s", windowed_quantile(walls, 0.5), "s", n, MetricKind::kInfo);
  out.add("solve_p90_s", windowed_quantile(walls, tail), "s", n, MetricKind::kInfo);
  out.add("solve_max_s", windowed_quantile(walls, 1.0), "s", n, MetricKind::kInfo);
  out.add("cells", static_cast<double>(cells.size()), "count", 1, MetricKind::kInfo);

  if (opt.trace) measure_layers(opt, cells, 3, out);
  return out;
}

}  // namespace lrd::perfbench
