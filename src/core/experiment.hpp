// Parameter-sweep drivers for the paper's three experiment families
// (Section III) and a small table type for printing their results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "dist/marginal.hpp"
#include "queueing/solver.hpp"
#include "runtime/cache.hpp"
#include "runtime/manifest.hpp"
#include "traffic/trace.hpp"

namespace lrd::core {

struct ModelConfig;  // core/model.hpp

/// A 2-D sweep result: values[r][c] = loss for (rows[r], cols[c]).
///
/// Sweeps degrade gracefully: a cell whose solve fails (guard trip with no
/// healthy level, or an exception) gets a NaN value and a structured entry
/// in `issues` instead of sinking the whole surface; a cell that merely
/// exhausted its budget keeps its (valid, wide) bracket midpoint and is
/// also recorded. `ok()` is true iff no cell reported a problem.
struct SweepTable {
  std::string title;
  std::string row_label;
  std::string col_label;
  std::vector<double> rows;
  std::vector<double> cols;
  std::vector<std::vector<double>> values;

  /// One failed or degraded cell.
  struct CellIssue {
    std::size_t row = 0;
    std::size_t col = 0;
    lrd::Diagnostics diagnostics;
  };
  std::vector<CellIssue> issues;

  bool ok() const noexcept { return issues.empty(); }

  /// Aligned human-readable table (losses in scientific notation),
  /// followed by one line per recorded issue.
  void print(std::ostream& os) const;
  /// Machine-readable CSV: header row of cols, one line per row. Recorded
  /// issues follow as a trailing '#'-comment block (sorted by cell), so a
  /// degraded cell is distinguishable from a genuine NaN loss in saved
  /// artifacts without consulting the human-readable table.
  void print_csv(std::ostream& os) const;

  double at(std::size_t r, std::size_t c) const { return values.at(r).at(c); }
};

/// Common sweep parameters shared by the model-driven experiments.
struct ModelSweepConfig {
  double hurst = 0.9;
  double mean_epoch = 0.08;     // seconds (theta calibration at T_c = inf)
  double utilization = 0.8;
  queueing::SolverConfig solver;

  /// Ok, or a kInvalidConfig diagnostic. Every sweep driver calls this
  /// before touching a single cell.
  lrd::Status validate() const;
};

/// Runtime knobs shared by every sweep driver: how many workers to use,
/// whether to reuse cached cell results, and where to record
/// observability data. The default-constructed value reproduces the plain
/// "compute everything, keep nothing" behaviour, so existing call sites
/// are unaffected.
struct SweepRunOptions {
  /// Worker threads for the cell solves (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Optional solver result cache, shared across sweeps and runs. Only
  /// clean cells (no CellIssue) are stored or served. With a disk tier it
  /// is also how an interrupted sweep resumes: rerun on the same cache.
  runtime::SolverCache* cache = nullptr;
  /// Optional per-run manifest to populate (cell timings, cache counters,
  /// worker utilization, issues).
  runtime::RunManifest* manifest = nullptr;
  /// Collect per-solve convergence telemetry (see obs/telemetry.hpp) and
  /// attach it to the manifest's cell_times entries. Only model-driven
  /// cells produce telemetry; trace-driven cells have no solver.
  bool solver_telemetry = false;
  /// Draw a stderr progress heartbeat while the sweep runs: cells
  /// done/total, rate, ETA and (with a cache attached) the hit-rate.
  bool progress = false;
  /// Label prefixing every heartbeat line.
  std::string progress_label = "sweep";
  /// Per-cell wall-clock budget in milliseconds (0 = unbounded). A cell
  /// whose solve exceeds it returns a valid-but-wide bracket and is
  /// retried at coarser bins (below) before being marked degraded; the
  /// manifest records deadline_exceeded / retries / degraded per cell.
  std::size_t cell_deadline_ms = 0;
  /// Deadline-exceeded retries per cell; each retry halves the solver's
  /// max_bins (never below initial_bins), trading bracket tightness for
  /// meeting the deadline. Retried values are not stored in the shared
  /// cache (they came from a coarser grid), so a rerun re-solves them.
  std::size_t max_cell_retries = 1;
  /// Optional cooperative cancellation for the whole sweep: pending
  /// cells are skipped and in-flight solves stop at their next check
  /// block. Finished clean cells are already in the cache, so a rerun on
  /// the same cache completes the surface bit-identically. Non-owning.
  const runtime::CancellationToken* cancellation = nullptr;
};

/// Content address of one model-driven sweep cell: a canonical FNV-1a
/// hash of (version salt, marginal, ModelConfig, SolverConfig). Stable
/// across runs and platforms — see runtime/cache.hpp for the contract.
std::uint64_t model_cell_key(const dist::Marginal& marginal, const ModelConfig& mc,
                             const queueing::SolverConfig& scfg);

/// Content address of one shuffled-trace sweep cell: a canonical FNV-1a
/// hash of (version salt, trace, shuffle seed, utilization, buffer,
/// cutoff). The simulation is deterministic given the seed, so cells are
/// cacheable exactly like model solves.
std::uint64_t trace_cell_key(const traffic::RateTrace& trace, double utilization,
                             double normalized_buffer, double cutoff, std::uint64_t seed);

/// First experiment set (Figs. 4, 5): loss vs (normalized buffer b,
/// cutoff lag T_c) for a fixed marginal.
SweepTable loss_vs_buffer_and_cutoff(const dist::Marginal& marginal,
                                     const ModelSweepConfig& cfg,
                                     const std::vector<double>& normalized_buffers,
                                     const std::vector<double>& cutoffs,
                                     const SweepRunOptions& opts = {});

/// Second experiment set (Fig. 10): loss vs (Hurst H, marginal scaling a)
/// at fixed b and T_c = inf. Theta is matched once at `cfg.hurst` (the
/// nominal H), as in the paper, so varying H does not perturb the
/// short-range structure via theta.
SweepTable loss_vs_hurst_and_scaling(const dist::Marginal& marginal,
                                     const ModelSweepConfig& cfg, double normalized_buffer,
                                     const std::vector<double>& hursts,
                                     const std::vector<double>& scalings,
                                     const SweepRunOptions& opts = {});

/// Second experiment set (Fig. 11): loss vs (Hurst H, number of
/// superposed streams n); buffer and service rate are per-stream.
SweepTable loss_vs_hurst_and_superposition(const dist::Marginal& marginal,
                                           const ModelSweepConfig& cfg,
                                           double normalized_buffer,
                                           const std::vector<double>& hursts,
                                           const std::vector<std::size_t>& streams,
                                           const SweepRunOptions& opts = {});

/// Third experiment set (Figs. 12, 13): loss vs (normalized buffer b,
/// marginal scaling a) at T_c = inf.
SweepTable loss_vs_buffer_and_scaling(const dist::Marginal& marginal,
                                      const ModelSweepConfig& cfg,
                                      const std::vector<double>& normalized_buffers,
                                      const std::vector<double>& scalings,
                                      const SweepRunOptions& opts = {});

/// Loss vs cutoff at fixed buffer — the Fig. 9 single-row sweep.
std::vector<double> loss_vs_cutoff(const dist::Marginal& marginal, const ModelSweepConfig& cfg,
                                   double normalized_buffer,
                                   const std::vector<double>& cutoffs);

/// Shuffled-trace experiment (Figs. 7, 8, 14): loss of the trace-driven
/// queue when the trace is externally shuffled with block length = cutoff.
/// An infinite cutoff means "no shuffling" (the original trace).
SweepTable shuffle_loss_vs_buffer_and_cutoff(const traffic::RateTrace& trace,
                                             double utilization,
                                             const std::vector<double>& normalized_buffers,
                                             const std::vector<double>& cutoffs,
                                             std::uint64_t seed = 7,
                                             const SweepRunOptions& opts = {});

}  // namespace lrd::core
