// Per-run JSON manifest: the observability layer of a sweep run.
//
// A manifest records what a sweep did and what it cost: an echo of the
// configuration, the config hash, per-cell wall times with their
// provenance (computed / cache), cache hit/miss counters,
// executor worker utilization, and every recorded CellIssue. The figure
// binaries and `lrdq_sweep` write one JSON file per run, so a slow or
// degraded surface can be diagnosed from its artifact instead of by
// rerunning it.
//
// Schema (stable keys, documented in docs/RUNTIME.md):
// {
//   "tool": "...", "title": "...",
//   "config": { "<flag>": "<value>", ... },
//   "config_hash": "<16-hex>",
//   "grid": { "rows": R, "cols": C },
//   "cells": { "total": N, "computed": a, "cache_hits": b,
//              "degraded": d, "timed_out": t, "retried": r },  // last 3 optional
//   "cache": { "hits": h, "misses": m, "stores": s, "loaded": l },
//   "executor": { "workers": p, "utilization": u, "busy_seconds": [...] },
//   "wall_seconds": w,
//   "metrics": { ... },    // optional: obs::Registry JSON snapshot
//   "cell_times": [ { "row": r, "col": c, "seconds": s, "source": "computed",
//                     "deadline_exceeded": true, "retries": n, "degraded": true,
//                     "telemetry": { ... } }, ... ],  // flags/telemetry optional
//   "issues": [ "<diagnostic>", ... ]
// }
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/cache.hpp"
#include "runtime/executor.hpp"

namespace lrd::runtime {

/// Robustness annotations for one cell: whether its solve ran out of
/// deadline, how many coarser-bin retries it took, and whether the
/// final value is degraded (best-effort rather than converged).
/// Namespace-scope (not nested) so it is complete where RunManifest's
/// default arguments are parsed.
struct CellFlags {
  bool deadline_exceeded = false;
  std::size_t retries = 0;
  bool degraded = false;
};

class RunManifest {
 public:
  /// Provenance of one cell value.
  enum class CellSource { kComputed, kCache };

  void set_tool(std::string tool);
  void set_title(std::string title);
  /// Echoes one configuration key/value pair (insertion order preserved).
  void add_config(std::string key, std::string value);
  void set_config_hash(std::uint64_t hash);
  void set_grid(std::size_t rows, std::size_t cols);
  void set_cache_stats(const CacheStats& stats);
  void set_executor_stats(const JobStats& stats);
  void set_wall_seconds(double seconds);

  /// Records one finished cell (thread-safe). `telemetry_json`, when
  /// non-empty, is a serialized obs::SolverTelemetry object emitted
  /// verbatim as the cell's "telemetry" key.
  void add_cell(std::size_t row, std::size_t col, double seconds, CellSource source,
                std::string telemetry_json = {}, CellFlags flags = {});

  /// Attaches a metrics-registry JSON snapshot (obs::Registry::to_json),
  /// emitted verbatim under the "metrics" key; empty = omitted.
  void set_metrics_json(std::string metrics_json);
  /// Records one degraded-cell diagnostic (thread-safe).
  void add_issue(std::string description);

  std::size_t cells_from(CellSource source) const;
  std::size_t total_cells() const;

  /// Serializes the manifest; cell_times are sorted by (row, col) so the
  /// output is deterministic regardless of execution order.
  std::string to_json() const;

  /// Atomic write (temp + fsync + rename + directory fsync); false on
  /// I/O failure.
  bool write_file(const std::string& path) const;

 private:
  struct Cell {
    std::size_t row, col;
    double seconds;
    CellSource source;
    std::string telemetry;  // raw JSON object, empty = none
    CellFlags flags;
  };

  std::string tool_;
  std::string title_;
  std::vector<std::pair<std::string, std::string>> config_;
  std::uint64_t config_hash_ = 0;
  std::size_t rows_ = 0, cols_ = 0;
  CacheStats cache_;
  JobStats executor_;
  double wall_seconds_ = 0.0;
  std::string metrics_json_;

  mutable std::mutex mu_;  // guards cells_ and issues_ during the parallel phase
  std::vector<Cell> cells_;
  std::vector<std::string> issues_;
};

}  // namespace lrd::runtime
