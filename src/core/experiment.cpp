#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <memory>
#include <mutex>
#include <ostream>

#include "core/failpoint.hpp"
#include "core/model.hpp"
#include "numerics/parallel.hpp"
#include "numerics/random.hpp"
#include "obs/bundle.hpp"
#include "obs/clock.hpp"
#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "queueing/trace_queue_sim.hpp"
#include "runtime/executor.hpp"
#include "traffic/shuffle.hpp"

namespace lrd::core {

namespace {

using obs::seconds_since;

std::string format_param(double v) {
  if (std::isinf(v)) return "inf";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Result of one cell: its loss value plus whether the solve was clean
/// (no CellIssue). Only clean cells enter the result cache, so degraded
/// cells re-solve — and re-diagnose — every run.
struct CellOutcome {
  double value = kNaN;
  bool clean = false;
  /// Access-record status and code: the solver's stop name and
  /// SolverResult::exit_code(), "error" and its category's code for a
  /// cell that threw, "ok" / 0 for a cell with no solve.
  const char* status = "ok";
  int code = 0;
  std::string telemetry_json;  // serialized SolverTelemetry, empty = none
  bool deadline_exceeded = false;  // final attempt still hit the deadline
  std::size_t retries = 0;         // coarser-bins re-solves taken
  bool degraded = false;           // value is best-effort, not converged
};

/// Solves one model-driven cell, converting every failure mode into a
/// recorded issue instead of sinking the whole surface. The value is the
/// loss estimate, or NaN when the cell produced no usable bracket. A
/// deadline-exceeded solve is retried up to `opts.max_cell_retries`
/// times at halved max_bins (never below initial_bins): a coarser grid
/// converges in fewer, cheaper iterations, so the retry trades bracket
/// tightness for meeting the deadline.
CellOutcome solve_cell(const dist::Marginal& marginal, const ModelConfig& mc,
                       const queueing::SolverConfig& scfg, const SweepRunOptions& opts,
                       SweepTable& t, std::size_t r, std::size_t c, std::mutex& mu) {
  queueing::SolverConfig cell_cfg = scfg;
  cell_cfg.collect_telemetry = opts.solver_telemetry;
  if (opts.cell_deadline_ms > 0) cell_cfg.deadline_ms = opts.cell_deadline_ms;
  if (opts.cancellation != nullptr) cell_cfg.cancellation = opts.cancellation;
  CellOutcome out;
  try {
    auto result = FluidModel(marginal, mc).solve(cell_cfg);
    while (result.stop == queueing::SolverStop::kDeadlineExceeded &&
           out.retries < opts.max_cell_retries && cell_cfg.max_bins > cell_cfg.initial_bins) {
      ++out.retries;
      cell_cfg.max_bins = std::max(cell_cfg.initial_bins, cell_cfg.max_bins / 2);
      obs::flight::record(obs::flight::EventKind::kRetry, "sweep", out.retries,
                          cell_cfg.max_bins);
      result = FluidModel(marginal, mc).solve(cell_cfg);
    }
    out.deadline_exceeded = result.stop == queueing::SolverStop::kDeadlineExceeded;
    out.status = queueing::solver_stop_name(result.stop);
    out.code = result.exit_code();
    if (opts.solver_telemetry) out.telemetry_json = result.telemetry.to_json();
    if (result.status.is_ok()) {
      out.value = result.loss_estimate();
      out.clean = true;
      return out;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      t.issues.push_back({r, c, result.status.diagnostics()});
    }
    // Budget exhaustion and rolled-back guard trips still carry a valid
    // (wide) bracket; a cell with no healthy level at all does not.
    const bool usable = !(result.stop == queueing::SolverStop::kGuardTripped &&
                          result.last_healthy_level == 0);
    out.value = usable ? result.loss_estimate() : kNaN;
    out.degraded = true;
    return out;
  } catch (const std::exception& e) {
    lrd::Diagnostics d;
    if (const auto* attached = lrd::diagnostics_of(e)) {
      d = *attached;
    } else {
      d = lrd::make_diagnostics(lrd::ErrorCategory::kInternal, "core.experiment",
                                "sweep cell solves without throwing", e.what());
    }
    out.value = kNaN;
    out.clean = false;
    out.degraded = true;
    out.status = "error";
    out.code = lrd::exit_code_for(d.category);
    std::lock_guard<std::mutex> lock(mu);
    t.issues.push_back({r, c, std::move(d)});
    return out;
  }
}

void require_valid(const ModelSweepConfig& cfg) {
  if (auto st = cfg.validate(); !st.is_ok()) throw lrd::ConfigError(st.diagnostics());
}

void sort_issues(std::vector<SweepTable::CellIssue>& issues) {
  std::sort(issues.begin(), issues.end(),
            [](const SweepTable::CellIssue& a, const SweepTable::CellIssue& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
}

void hash_marginal(runtime::Fnv1a& h, const dist::Marginal& m) {
  // Marginal canonicalizes at construction (sorted support, merged
  // duplicates, renormalized probabilities), so equal distributions hash
  // equal regardless of the order the caller listed them in.
  h.u64(m.size());
  for (double r : m.rates()) h.f64(r);
  for (double p : m.probs()) h.f64(p);
}

// Deliberately excludes collect_telemetry, deadline_ms and cancellation:
// none affect a *converged* trajectory (only converged, unretried results
// are cached), so keys stay stable across observability/deadline settings.
// The solver constants are hashed where they sat when they were config
// fields, so keys written then still hit.
void hash_solver_config(runtime::Fnv1a& h, const queueing::SolverConfig& scfg) {
  h.u64(scfg.initial_bins).u64(scfg.max_bins).f64(scfg.target_relative_gap);
  h.f64(queueing::kZeroLossThreshold).u64(queueing::kCheckEvery).f64(queueing::kStallImprovement);
  h.u64(scfg.max_iterations_per_level).u64(scfg.max_total_iterations);
  h.f64(queueing::kMassTolerance).f64(queueing::kNegativeTolerance).f64(queueing::kBracketTolerance);
}

void hash_axes(runtime::Fnv1a& h, const std::vector<double>& rows,
               const std::vector<double>& cols) {
  h.u64(rows.size());
  for (double r : rows) h.f64(r);
  h.u64(cols.size());
  for (double c : cols) h.f64(c);
}

/// Generic sweep-cell runner behind every SweepTable driver: serves cells
/// from the result cache, solves the rest on the shared executor,
/// and keeps the manifest up to date. `cell_key` is only consulted when a
/// cache is attached. A cache with a disk tier is also the resume path:
/// every clean cell is appended and fsynced as it finishes, so rerunning
/// an interrupted sweep on the same cache serves the finished cells.
void run_sweep_cells(
    SweepTable& t, const SweepRunOptions& opts, std::uint64_t config_hash,
    const std::function<std::uint64_t(std::size_t, std::size_t)>& cell_key,
    const std::function<CellOutcome(std::size_t, std::size_t, std::mutex&)>& compute) {
  const std::size_t nc = t.cols.size();
  const std::size_t total = t.rows.size() * nc;
  const auto run_start = obs::now();
  obs::Span run_span("sweep.run", "sweep");
  run_span.annotate("rows", t.rows.size(), "cols", nc);
  runtime::RunManifest* manifest = opts.manifest;
  if (manifest) {
    manifest->set_grid(t.rows.size(), nc);
    manifest->set_config_hash(config_hash);
  }

  std::unique_ptr<obs::ProgressMeter> progress;
  if (opts.progress) {
    std::function<std::string()> aux;
    if (runtime::SolverCache* cache = opts.cache) {
      aux = [cache] {
        const auto s = cache->stats();
        const std::uint64_t lookups = s.hits + s.misses;
        char buf[48];
        std::snprintf(buf, sizeof buf, "cache %.0f%% hit",
                      lookups == 0 ? 0.0
                                   : 100.0 * static_cast<double>(s.hits) /
                                         static_cast<double>(lookups));
        return std::string(buf);
      };
    }
    progress = std::make_unique<obs::ProgressMeter>(opts.progress_label, total, std::move(aux));
  }

  // Cache pass: serve what the result cache already knows.
  std::vector<std::size_t> todo;
  std::vector<std::uint64_t> keys;
  todo.reserve(total);
  keys.reserve(total);
  for (std::size_t idx = 0; idx < total; ++idx) {
    const std::size_t r = idx / nc, c = idx % nc;
    std::uint64_t key = 0;
    if (opts.cache) {
      key = cell_key(r, c);
      if (const auto hit = opts.cache->lookup(key)) {
        t.values[r][c] = *hit;
        if (manifest)
          manifest->add_cell(r, c, 0.0, runtime::RunManifest::CellSource::kCache);
        if (progress) progress->advance();
        continue;
      }
    }
    todo.push_back(idx);
    keys.push_back(key);
  }

  if (!todo.empty()) {
    std::mutex mu;
    auto& executor = runtime::Executor::global();
    executor.parallel_for(
        todo.size(),
        [&](std::size_t k) {
          // A cancelled sweep skips its pending cells entirely: the cache
          // keeps only completed clean cells, so a rerun on the same cache
          // finishes the surface bit-identically to an uninterrupted run.
          if (opts.cancellation != nullptr && opts.cancellation->cancelled()) return;
          failpoint_hit("sweep.cell");
          const std::size_t idx = todo[k];
          const std::size_t r = idx / nc, c = idx % nc;
          const auto t0 = obs::now();
          CellOutcome out;
          {
            obs::Span cell_span("sweep.cell", "sweep");
            cell_span.annotate("row", r, "col", c);
            out = compute(r, c, mu);
          }
          const double cell_seconds = seconds_since(t0);
          t.values[r][c] = out.value;
          // A retried value converged on a coarser grid than the cache key
          // describes; keep it for this run but do not publish it to the
          // shared cache (so an interrupted run re-solves it).
          if (out.clean && opts.cache && out.retries == 0) opts.cache->store(keys[k], out.value);
          if (manifest)
            manifest->add_cell(r, c, cell_seconds, runtime::RunManifest::CellSource::kComputed,
                               std::move(out.telemetry_json),
                               {out.deadline_exceeded, out.retries, out.degraded});
          if constexpr (obs::kObsEnabled) {
            auto& reg = obs::Registry::global();
            static obs::Counter& cells = reg.counter("lrd_sweep_cells_total",
                                                     "Sweep cells computed (excludes cache hits)");
            static obs::Histogram& cell_hist =
                reg.histogram("lrd_sweep_cell_seconds", "Wall time per computed sweep cell");
            cells.inc();
            cell_hist.observe(cell_seconds);
          }
          if (obs::EventLog::global().active()) {
            obs::AccessRecord rec;
            rec.tool = "lrdq_sweep";
            rec.id = std::to_string(r) + "," + std::to_string(c);
            rec.op = "sweep.cell";
            rec.status = out.status;
            rec.code = out.code;
            rec.wall_ms = cell_seconds * 1e3;
            obs::EventLog::global().append(rec);
          }
          if (out.deadline_exceeded) obs::bundle::dump_incident("deadline_exceeded");
          if (progress) progress->advance();
        },
        opts.threads);
    if (manifest) manifest->set_executor_stats(executor.last_job_stats());
  }

  // Deterministic issue order regardless of worker interleaving — part of
  // what makes a resumed CSV bit-identical to an uninterrupted one.
  sort_issues(t.issues);

  if (progress) progress->finish();

  if (manifest) {
    if (opts.cache) manifest->set_cache_stats(opts.cache->stats());
    for (const auto& issue : t.issues) {
      manifest->add_issue("(" + format_param(t.rows[issue.row]) + ", " +
                          format_param(t.cols[issue.col]) + "): " +
                          issue.diagnostics.describe());
    }
    manifest->set_wall_seconds(seconds_since(run_start));
    if constexpr (obs::kObsEnabled)
      manifest->set_metrics_json(obs::Registry::global().to_json());
  }
}

}  // namespace

std::uint64_t model_cell_key(const dist::Marginal& marginal, const ModelConfig& mc,
                             const queueing::SolverConfig& scfg) {
  runtime::Fnv1a h;
  h.str(runtime::kCacheVersionSalt);
  h.str("model-cell");
  hash_marginal(h, marginal);
  h.f64(mc.hurst).f64(mc.mean_epoch).f64(mc.cutoff).f64(mc.utilization).f64(mc.normalized_buffer);
  hash_solver_config(h, scfg);
  return h.digest();
}

std::uint64_t trace_cell_key(const traffic::RateTrace& trace, double utilization,
                             double normalized_buffer, double cutoff, std::uint64_t seed) {
  runtime::Fnv1a h;
  h.str(runtime::kCacheVersionSalt);
  h.str("trace-cell");
  h.f64(trace.bin_seconds());
  h.u64(trace.size());
  for (double r : trace.rates()) h.f64(r);
  h.u64(seed).f64(utilization).f64(normalized_buffer).f64(cutoff);
  return h.digest();
}

lrd::Status ModelSweepConfig::validate() const {
  auto bad = [](std::string invariant, const char* name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s = %g", name, value);
    return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                      "core.experiment", std::move(invariant),
                                                      buf));
  };
  if (!(hurst > 0.5 && hurst < 1.0)) return bad("hurst in (1/2, 1)", "hurst", hurst);
  if (!(mean_epoch > 0.0) || !std::isfinite(mean_epoch))
    return bad("mean_epoch is finite and > 0", "mean_epoch", mean_epoch);
  if (!(utilization > 0.0 && utilization < 1.0))
    return bad("utilization in (0, 1)", "utilization", utilization);
  return solver.validate();
}

void SweepTable::print(std::ostream& os) const {
  os << title << '\n';
  os << std::left << std::setw(14) << (row_label + " \\ " + col_label);
  for (double c : cols) os << std::right << std::setw(12) << format_param(c);
  os << '\n';
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << std::left << std::setw(14) << format_param(rows[r]);
    for (std::size_t c = 0; c < cols.size(); ++c) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3e", values[r][c]);
      os << std::right << std::setw(12) << buf;
    }
    os << '\n';
  }
  if (!issues.empty()) {
    auto sorted = issues;
    sort_issues(sorted);
    os << sorted.size() << " cell(s) reported issues:\n";
    for (const auto& issue : sorted) {
      os << "  (" << format_param(rows[issue.row]) << ", " << format_param(cols[issue.col])
         << "): " << issue.diagnostics.describe() << '\n';
    }
  }
}

void SweepTable::print_csv(std::ostream& os) const {
  os << row_label << "\\" << col_label;
  for (double c : cols) os << ',' << format_param(c);
  os << '\n';
  os.precision(10);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << format_param(rows[r]);
    for (std::size_t c = 0; c < cols.size(); ++c) os << ',' << values[r][c];
    os << '\n';
  }
  // Trailing comment block: one line per degraded cell, so a NaN (or
  // budget-widened) entry in the saved artifact is attributable without
  // the human-readable table alongside it.
  if (!issues.empty()) {
    auto sorted = issues;
    sort_issues(sorted);
    os << "# issues: " << sorted.size() << '\n';
    for (const auto& issue : sorted) {
      os << "# issue: row=" << format_param(rows[issue.row])
         << " col=" << format_param(cols[issue.col]) << ' '
         << issue.diagnostics.describe() << '\n';
    }
  }
}

SweepTable loss_vs_buffer_and_cutoff(const dist::Marginal& marginal,
                                     const ModelSweepConfig& cfg,
                                     const std::vector<double>& normalized_buffers,
                                     const std::vector<double>& cutoffs,
                                     const SweepRunOptions& opts) {
  require_valid(cfg);
  SweepTable t;
  t.title = "loss rate vs normalized buffer size and cutoff lag";
  t.row_label = "buffer_s";
  t.col_label = "cutoff_s";
  t.rows = normalized_buffers;
  t.cols = cutoffs;
  t.values.assign(normalized_buffers.size(), std::vector<double>(cutoffs.size(), 0.0));

  auto mc_for = [&](std::size_t r, std::size_t c) {
    ModelConfig mc;
    mc.hurst = cfg.hurst;
    mc.mean_epoch = cfg.mean_epoch;
    mc.cutoff = cutoffs[c];
    mc.utilization = cfg.utilization;
    mc.normalized_buffer = normalized_buffers[r];
    return mc;
  };

  runtime::Fnv1a ch;
  ch.str(runtime::kCacheVersionSalt).str("loss_vs_buffer_and_cutoff");
  hash_marginal(ch, marginal);
  ch.f64(cfg.hurst).f64(cfg.mean_epoch).f64(cfg.utilization);
  hash_solver_config(ch, cfg.solver);
  hash_axes(ch, t.rows, t.cols);

  run_sweep_cells(
      t, opts, ch.digest(),
      [&](std::size_t r, std::size_t c) { return model_cell_key(marginal, mc_for(r, c), cfg.solver); },
      [&](std::size_t r, std::size_t c, std::mutex& mu) {
        return solve_cell(marginal, mc_for(r, c), cfg.solver, opts, t, r, c, mu);
      });
  return t;
}

SweepTable loss_vs_hurst_and_scaling(const dist::Marginal& marginal,
                                     const ModelSweepConfig& cfg, double normalized_buffer,
                                     const std::vector<double>& hursts,
                                     const std::vector<double>& scalings,
                                     const SweepRunOptions& opts) {
  require_valid(cfg);
  SweepTable t;
  t.title = "loss rate vs Hurst parameter and marginal scaling factor";
  t.row_label = "hurst";
  t.col_label = "scaling";
  t.rows = hursts;
  t.cols = scalings;
  t.values.assign(hursts.size(), std::vector<double>(scalings.size(), 0.0));

  // Theta is matched once, at the nominal Hurst parameter (paper, Fig. 10).
  const double nominal_alpha = dist::TruncatedPareto::alpha_from_hurst(cfg.hurst);
  const double theta = dist::TruncatedPareto::theta_from_mean_epoch(cfg.mean_epoch, nominal_alpha);

  // Scaled marginals are shared across rows; build them once.
  std::vector<dist::Marginal> scaled;
  scaled.reserve(scalings.size());
  for (double a : scalings) scaled.push_back(marginal.scaled(a));

  auto mc_for = [&](std::size_t r) {
    const double alpha = dist::TruncatedPareto::alpha_from_hurst(hursts[r]);
    ModelConfig mc;
    mc.hurst = hursts[r];
    // Same theta for the whole experiment: mean_epoch follows alpha.
    mc.mean_epoch = theta / (alpha - 1.0);
    mc.cutoff = std::numeric_limits<double>::infinity();
    mc.utilization = cfg.utilization;
    mc.normalized_buffer = normalized_buffer;
    return mc;
  };

  runtime::Fnv1a ch;
  ch.str(runtime::kCacheVersionSalt).str("loss_vs_hurst_and_scaling");
  hash_marginal(ch, marginal);
  ch.f64(cfg.hurst).f64(cfg.mean_epoch).f64(cfg.utilization).f64(normalized_buffer);
  hash_solver_config(ch, cfg.solver);
  hash_axes(ch, t.rows, t.cols);

  run_sweep_cells(
      t, opts, ch.digest(),
      [&](std::size_t r, std::size_t c) { return model_cell_key(scaled[c], mc_for(r), cfg.solver); },
      [&](std::size_t r, std::size_t c, std::mutex& mu) {
        return solve_cell(scaled[c], mc_for(r), cfg.solver, opts, t, r, c, mu);
      });
  return t;
}

SweepTable loss_vs_hurst_and_superposition(const dist::Marginal& marginal,
                                           const ModelSweepConfig& cfg,
                                           double normalized_buffer,
                                           const std::vector<double>& hursts,
                                           const std::vector<std::size_t>& streams,
                                           const SweepRunOptions& opts) {
  require_valid(cfg);
  SweepTable t;
  t.title = "loss rate vs Hurst parameter and number of superposed streams";
  t.row_label = "hurst";
  t.col_label = "streams";
  t.rows = hursts;
  for (std::size_t n : streams) t.cols.push_back(static_cast<double>(n));
  t.values.assign(hursts.size(), std::vector<double>(streams.size(), 0.0));

  const double nominal_alpha = dist::TruncatedPareto::alpha_from_hurst(cfg.hurst);
  const double theta = dist::TruncatedPareto::theta_from_mean_epoch(cfg.mean_epoch, nominal_alpha);

  // Superposed marginals are shared across rows; build them once.
  std::vector<dist::Marginal> mux;
  mux.reserve(streams.size());
  for (std::size_t n : streams) mux.push_back(marginal.superposed(n));

  auto mc_for = [&](std::size_t r) {
    const double alpha = dist::TruncatedPareto::alpha_from_hurst(hursts[r]);
    ModelConfig mc;
    mc.hurst = hursts[r];
    mc.mean_epoch = theta / (alpha - 1.0);
    mc.cutoff = std::numeric_limits<double>::infinity();
    mc.utilization = cfg.utilization;
    mc.normalized_buffer = normalized_buffer;
    return mc;
  };

  runtime::Fnv1a ch;
  ch.str(runtime::kCacheVersionSalt).str("loss_vs_hurst_and_superposition");
  hash_marginal(ch, marginal);
  ch.f64(cfg.hurst).f64(cfg.mean_epoch).f64(cfg.utilization).f64(normalized_buffer);
  hash_solver_config(ch, cfg.solver);
  hash_axes(ch, t.rows, t.cols);

  run_sweep_cells(
      t, opts, ch.digest(),
      [&](std::size_t r, std::size_t c) { return model_cell_key(mux[c], mc_for(r), cfg.solver); },
      [&](std::size_t r, std::size_t c, std::mutex& mu) {
        return solve_cell(mux[c], mc_for(r), cfg.solver, opts, t, r, c, mu);
      });
  return t;
}

SweepTable loss_vs_buffer_and_scaling(const dist::Marginal& marginal,
                                      const ModelSweepConfig& cfg,
                                      const std::vector<double>& normalized_buffers,
                                      const std::vector<double>& scalings,
                                      const SweepRunOptions& opts) {
  require_valid(cfg);
  SweepTable t;
  t.title = "loss rate vs normalized buffer size and marginal scaling factor";
  t.row_label = "buffer_s";
  t.col_label = "scaling";
  t.rows = normalized_buffers;
  t.cols = scalings;
  t.values.assign(normalized_buffers.size(), std::vector<double>(scalings.size(), 0.0));

  std::vector<dist::Marginal> scaled;
  scaled.reserve(scalings.size());
  for (double a : scalings) scaled.push_back(marginal.scaled(a));

  auto mc_for = [&](std::size_t r) {
    ModelConfig mc;
    mc.hurst = cfg.hurst;
    mc.mean_epoch = cfg.mean_epoch;
    mc.cutoff = std::numeric_limits<double>::infinity();
    mc.utilization = cfg.utilization;
    mc.normalized_buffer = normalized_buffers[r];
    return mc;
  };

  runtime::Fnv1a ch;
  ch.str(runtime::kCacheVersionSalt).str("loss_vs_buffer_and_scaling");
  hash_marginal(ch, marginal);
  ch.f64(cfg.hurst).f64(cfg.mean_epoch).f64(cfg.utilization);
  hash_solver_config(ch, cfg.solver);
  hash_axes(ch, t.rows, t.cols);

  run_sweep_cells(
      t, opts, ch.digest(),
      [&](std::size_t r, std::size_t c) { return model_cell_key(scaled[c], mc_for(r), cfg.solver); },
      [&](std::size_t r, std::size_t c, std::mutex& mu) {
        return solve_cell(scaled[c], mc_for(r), cfg.solver, opts, t, r, c, mu);
      });
  return t;
}

std::vector<double> loss_vs_cutoff(const dist::Marginal& marginal, const ModelSweepConfig& cfg,
                                   double normalized_buffer,
                                   const std::vector<double>& cutoffs) {
  require_valid(cfg);
  std::vector<double> out(cutoffs.size(), 0.0);
  numerics::parallel_for(cutoffs.size(), [&](std::size_t i) {
    ModelConfig mc;
    mc.hurst = cfg.hurst;
    mc.mean_epoch = cfg.mean_epoch;
    mc.cutoff = cutoffs[i];
    mc.utilization = cfg.utilization;
    mc.normalized_buffer = normalized_buffer;
    out[i] = FluidModel(marginal, mc).solve(cfg.solver).loss_estimate();
  });
  return out;
}

SweepTable shuffle_loss_vs_buffer_and_cutoff(const traffic::RateTrace& trace,
                                             double utilization,
                                             const std::vector<double>& normalized_buffers,
                                             const std::vector<double>& cutoffs,
                                             std::uint64_t seed,
                                             const SweepRunOptions& opts) {
  if (!(utilization > 0.0 && utilization < 1.0)) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "utilization = %g", utilization);
    throw lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                 "core.experiment", "utilization in (0, 1)", buf));
  }
  SweepTable t;
  t.title = "shuffled-trace loss rate vs normalized buffer size and cutoff lag";
  t.row_label = "buffer_s";
  t.col_label = "cutoff_s";
  t.rows = normalized_buffers;
  t.cols = cutoffs;
  t.values.assign(normalized_buffers.size(), std::vector<double>(cutoffs.size(), 0.0));

  // One shuffle per cutoff (deterministic per-column seed), reused across
  // buffer sizes, as in a single trace-driven experiment; the queue runs
  // for all cells proceed in parallel.
  std::vector<traffic::RateTrace> shuffled;
  shuffled.reserve(cutoffs.size());
  {
    obs::Span shuffle_span("sweep.shuffle", "sweep");
    shuffle_span.annotate("columns", cutoffs.size(), "trace_bins", trace.size());
    for (std::size_t c = 0; c < cutoffs.size(); ++c) {
      numerics::Rng rng(seed + 7919 * c);
      shuffled.push_back(
          std::isinf(cutoffs[c])
              ? trace
              : traffic::external_shuffle(
                    trace, traffic::block_length_for_cutoff(trace, cutoffs[c]), rng));
    }
  }

  runtime::Fnv1a ch;
  ch.str(runtime::kCacheVersionSalt).str("shuffle_loss_vs_buffer_and_cutoff");
  ch.f64(trace.bin_seconds()).u64(trace.size());
  for (double r : trace.rates()) ch.f64(r);
  ch.u64(seed).f64(utilization);
  hash_axes(ch, t.rows, t.cols);

  run_sweep_cells(
      t, opts, ch.digest(),
      [&](std::size_t r, std::size_t c) {
        return trace_cell_key(trace, utilization, normalized_buffers[r], cutoffs[c], seed);
      },
      [&](std::size_t r, std::size_t c, std::mutex&) {
        const double loss = queueing::simulate_trace_queue_normalized(
                                shuffled[c], utilization, normalized_buffers[r])
                                .loss_rate;
        CellOutcome out;
        out.value = loss;
        out.clean = true;
        return out;
      });
  return t;
}

}  // namespace lrd::core
