// sweep_cold: the Fig. 4 (MTV) and Fig. 5 (Bellcore) 5x5 loss surfaces
// at the paper's 20% gap and max_bins 4096, each through
// core::loss_vs_buffer_and_cutoff with a fresh memory-only SolverCache
// and one executor thread per CPU, repeated in seed-shuffled order.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "core/traces.hpp"
#include "layers.hpp"
#include "numerics/parallel.hpp"
#include "obs/json.hpp"
#include "runtime/executor.hpp"
#include "workloads.hpp"

namespace lrd::perfbench {

namespace {

const std::vector<double> kBuffers{0.01, 0.05, 0.2, 1.0, 5.0};
const std::vector<double> kCutoffs{0.1, 1.0, 10.0, 100.0, 1000.0};
constexpr double kGap = 0.2;
constexpr std::size_t kMaxBins = 1 << 12;
constexpr int kSetups = 5;

struct Surface {
  const char* figure;
  core::TraceModel model;
  /// Cells that stop on the bin budget at max_bins 4096 (row, col): the
  /// only ones allowed a CellIssue.
  std::set<std::pair<std::size_t, std::size_t>> degraded;
};

core::ModelSweepConfig sweep_config(const core::TraceModel& m) {
  core::ModelSweepConfig cfg;
  cfg.hurst = m.hurst;
  cfg.mean_epoch = m.mean_epoch;
  cfg.utilization = m.utilization;
  cfg.solver.target_relative_gap = kGap;
  cfg.solver.max_bins = kMaxBins;
  return cfg;
}

std::vector<Surface> build_surfaces() {
  std::vector<Surface> s;
  // At the largest buffer the bracket of one short-cutoff cell per
  // surface still stalls above 20% at 4096 bins.
  s.push_back({"fig04_mtv", core::mtv_model(), {{4, 1}}});
  s.push_back({"fig05_bc", core::bellcore_model(), {{4, 0}}});
  return s;
}

/// Builds the FFT plans and level shapes of every bin count a surface
/// reaches, and spawns the executor's workers.
void warm_up(const std::vector<Surface>& surfaces, std::size_t threads) {
  for (const Surface& s : surfaces) {
    core::ModelConfig mc;
    mc.hurst = s.model.hurst;
    mc.mean_epoch = s.model.mean_epoch;
    mc.utilization = s.model.utilization;
    mc.cutoff = 10.0;
    const core::FluidModel model(s.model.marginal, mc);
    for (std::size_t bins = 128; bins <= kMaxBins; bins *= 2) model.solver().iterate_fixed(bins, 1);
  }
  runtime::Executor::global().parallel_for(threads, [](std::size_t) {}, threads);
}

/// The four qualitative checks of the Fig. 4/5 reproduction
/// (bench/model_surface.hpp); empty when all pass.
std::string shape_problem(const core::SweepTable& t) {
  if (!(t.at(0, 4) / std::max(t.at(0, 3), 1e-300) < 1.25))
    return "small buffer: loss does not plateau at long cutoffs";
  for (std::size_t r = 0; r < kBuffers.size(); ++r)
    for (std::size_t c = 1; c < kCutoffs.size(); ++c)
      if (!(t.at(r, c) >= t.at(r, c - 1) * 0.9 - 1e-12)) return "loss does not increase with cutoff";
  for (std::size_t c = 0; c < kCutoffs.size(); ++c)
    for (std::size_t r = 1; r < kBuffers.size(); ++r)
      if (!(t.at(r, c) <= t.at(r - 1, c) * 1.25 + 1e-12)) return "loss does not decrease with buffer";
  const double gain_srd = t.at(2, 0) / std::max(t.at(4, 0), 1e-300);
  const double gain_lrd = t.at(2, 4) / std::max(t.at(4, 4), 1e-300);
  if (!(gain_lrd < gain_srd)) return "buffering is not less effective under long-range correlation";
  return {};
}

bool same_bits(const core::SweepTable& a, const core::SweepTable& b) {
  for (std::size_t r = 0; r < a.values.size(); ++r)
    if (std::memcmp(a.values[r].data(), b.values[r].data(), a.values[r].size() * sizeof(double)))
      return false;
  return true;
}

std::vector<Cell> surface_cells(const Surface& s) {
  std::vector<Cell> cells;
  for (double b : kBuffers)
    for (double tc : kCutoffs)
      cells.push_back(make_cell(s.model.marginal, s.model.hurst, s.model.mean_epoch,
                                s.model.utilization, b, tc, kGap, kMaxBins));
  return cells;
}

}  // namespace

std::size_t cpu_count() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

Outcome run_sweep_cold(const Options& opt) {
  Outcome out;
  const std::size_t threads = cpu_count();

  std::vector<double> setups;
  std::vector<Surface> surfaces;
  for (int rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point t0 = Clock::now();
    surfaces = build_surfaces();
    warm_up(surfaces, threads);
    setups.push_back(seconds_since(t0));
  }

  std::mt19937_64 rng(opt.seed);
  std::vector<double> per_surface, cell_walls, critical, utilization, cpu;
  std::vector<std::optional<core::SweepTable>> reference(surfaces.size());
  const Clock::time_point start = Clock::now();
  while (per_surface.empty() || seconds_since(start) < opt.seconds) {
    std::vector<std::size_t> order(surfaces.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    // A round (both surfaces) is the window: per-round means of surface
    // wall, slowest-cell wall and process CPU, medians across rounds.
    double round = 0.0, round_critical = 0.0, round_cpu = 0.0;
    for (std::size_t idx : order) {
      const Surface& s = surfaces[idx];
      runtime::SolverCache cache;
      runtime::RunManifest manifest;
      core::SweepRunOptions so;
      so.threads = threads;
      so.cache = &cache;
      so.manifest = &manifest;
      const double cpu0 = self_cpu_seconds();
      const Clock::time_point t0 = Clock::now();
      core::SweepTable table =
          core::loss_vs_buffer_and_cutoff(s.model.marginal, sweep_config(s.model), kBuffers, kCutoffs, so);
      const double wall = seconds_since(t0);
      round += wall;
      round_cpu += self_cpu_seconds() - cpu0;

      // Output checks, untimed.
      std::string why = shape_problem(table);
      std::set<std::pair<std::size_t, std::size_t>> issues;
      for (const auto& issue : table.issues) issues.insert({issue.row, issue.col});
      if (why.empty() && issues != s.degraded) {
        why = "degraded cells differ from the known bin-budget cells:";
        for (const auto& [r, c] : issues) why += " (" + std::to_string(r) + "," + std::to_string(c) + ")";
      }
      const runtime::CacheStats cs = cache.stats();
      if (why.empty() && (cs.hits != 0 || cs.misses != table.rows.size() * table.cols.size() ||
                          cs.stores != cs.misses - s.degraded.size()))
        why = "cache was not a miss-then-store for every clean cell";
      if (!reference[idx]) reference[idx] = table;
      else if (why.empty() && !same_bits(*reference[idx], table))
        why = "surface values differ between repeats";
      out.record(why.empty(), std::string(s.figure) + ": " + why);

      const auto doc = obs::json::parse(manifest.to_json());
      if (!doc) throw std::runtime_error("sweep manifest is not valid JSON");
      double worst = 0.0;
      if (const auto* cells = doc.value().find("cell_times"))
        for (const auto& c : cells->items()) {
          cell_walls.push_back(c.number_at("seconds"));
          worst = std::max(worst, c.number_at("seconds"));
        }
      round_critical += worst;
      if (const auto* ex = doc.value().find("executor")) utilization.push_back(ex->number_at("utilization"));
    }
    per_surface.push_back(round / static_cast<double>(order.size()));
    critical.push_back(round_critical / static_cast<double>(order.size()));
    cpu.push_back(round_cpu / static_cast<double>(order.size()));
  }

  // Every clean cell's bracket is ordered, and a direct solve reproduces
  // the swept value bit for bit.
  for (std::size_t idx = 0; idx < surfaces.size(); ++idx) {
    const Surface& s = surfaces[idx];
    std::vector<std::string> bad(kBuffers.size() * kCutoffs.size());
    numerics::parallel_for(bad.size(), [&](std::size_t k) {
      const std::size_t r = k / kCutoffs.size(), c = k % kCutoffs.size();
      if (s.degraded.count({r, c})) return;
      core::ModelConfig mc;
      mc.hurst = s.model.hurst;
      mc.mean_epoch = s.model.mean_epoch;
      mc.utilization = s.model.utilization;
      mc.normalized_buffer = kBuffers[r];
      mc.cutoff = kCutoffs[c];
      const auto res = core::FluidModel(s.model.marginal, mc).solve(sweep_config(s.model).solver);
      const double swept = reference[idx]->at(r, c), direct = res.loss_estimate();
      if (!(res.loss.lower <= res.loss.upper)) bad[k] = "bracket inverted";
      else if (std::memcmp(&swept, &direct, sizeof swept) != 0)
        bad[k] = "direct solve differs from the swept value";
    }, threads);
    for (std::size_t k = 0; k < bad.size(); ++k)
      if (!bad[k].empty())
        out.problems.push_back(std::string(s.figure) + " cell " + std::to_string(k) + ": " + bad[k]);
  }

  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out.add("setup_s", median(setups), "s", setups.size(), MetricKind::kEndToEnd);
  out.add("cpu_ms_per_op", median(cpu) * 1e3, "ms", cpu.size(), MetricKind::kEndToEnd);
  out.add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB", 1, MetricKind::kEndToEnd);
  out.add("surface_s", median(per_surface), "s", per_surface.size(), MetricKind::kInfo);
  out.add("cell_p50_ms", median(cell_walls) * 1e3, "ms", cell_walls.size(), MetricKind::kInfo);
  out.add("cell_p99_ms", quantile(cell_walls, 0.99) * 1e3, "ms", cell_walls.size(), MetricKind::kInfo);
  out.add("runtime.executor_utilization", median(utilization), "ratio", utilization.size(),
          MetricKind::kInfo);
  out.add("runtime.critical_cell_s", median(critical), "s", critical.size(), MetricKind::kInfo);
  out.add("threads", static_cast<double>(threads), "count", 1, MetricKind::kInfo);

  if (opt.trace) {
    std::vector<Cell> cells;
    for (const Surface& s : surfaces)
      for (Cell& c : surface_cells(s)) cells.push_back(std::move(c));
    measure_layers(opt, cells, 1, out);
  }
  return out;
}

}  // namespace lrd::perfbench
