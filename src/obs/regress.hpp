// Noise-aware performance-regression detection over the bench history.
//
// The bench harness appends one record per benchmark key to an
// append-only BENCH_history.jsonl store (schema "lrd-bench-v1", one JSON
// object per line). This layer reads that store back and answers the
// question CI needs answered: is the newest record for a key slower —
// or numerically worse — than its recent baseline, *beyond what repeat
// noise explains*?
//
// Detection rule (per key, wall time): with baseline medians m_1..m_n
// (the trailing window), center = median(m_i) and noise = max(MAD(m_i),
// median of the records' own MADs). The candidate regresses when
//   candidate_median - center > max(threshold * center, k * noise).
// The MAD term keeps a jittery benchmark from crying wolf; the relative
// threshold keeps an ultra-stable one from flagging microscopic drift.
// Gated telemetry metrics (iteration counts, mass drift, occupancy gap)
// use the same rule on the metric values — those are the convergence
// regressions a pure wall-time gate would miss.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "obs/json.hpp"

namespace lrd::obs {

/// Outlier-robust summary of one benchmark's repeat samples. MAD is the
/// raw median absolute deviation (no 1.4826 normal-consistency factor);
/// the detector scales it with its own k.
struct RobustStats {
  std::vector<double> values;  ///< Samples in recording order.
  double median = 0.0;
  double mad = 0.0;   ///< median_i |x_i - median|
  double min = 0.0;
  double mean = 0.0;
};

/// Median of `values` (by copy; empty input returns 0).
double median_of(std::vector<double> values);

/// Computes the robust summary of `values` (empty input -> all zeros).
RobustStats robust_stats(std::vector<double> values);

/// Tracing/instrumentation overhead judged against the repeat-noise
/// floor. A measured "speedup" below the noise floor is jitter, not a
/// speedup: `percent` clamps at 0 and `below_noise_floor` says why.
struct OverheadEstimate {
  double raw_percent = 0.0;          ///< (on - off) / off, in percent, unclamped.
  double percent = 0.0;              ///< max(0, raw_percent).
  double noise_floor_percent = 0.0;  ///< Combined repeat jitter of both sides.
  bool below_noise_floor = false;    ///< |raw| is inside the jitter band.
};

OverheadEstimate estimate_overhead(const RobustStats& off, const RobustStats& on);

/// One line of BENCH_history.jsonl, parsed.
struct BenchHistoryRecord {
  std::string bench;  ///< Emitting binary, e.g. "micro_sweep".
  std::string key;    ///< Benchmark key, e.g. "micro_sweep/executor".
  std::string unit;   ///< Unit of the sample values ("seconds", "ns", ...).
  std::size_t repeats = 0;
  std::size_t warmup = 0;
  double median = 0.0;
  double mad = 0.0;
  double min = 0.0;
  double mean = 0.0;
  std::vector<double> values;
  /// Auxiliary numbers riding on the record (telemetry aggregates, hit
  /// rates, speedups); insertion order preserved.
  std::vector<std::pair<std::string, double>> metrics;
  std::string git_describe;
  std::string build_type;
  std::string compiler;
  std::size_t cpu_count = 0;
  /// Selected SIMD ISA ("scalar", "avx2", "neon"); empty on records
  /// predating the field.
  std::string simd;
  bool obs_enabled = true;
  long long timestamp_unix = 0;

  /// Pointer to the named metric's value, or nullptr.
  const double* metric(const std::string& name) const noexcept;
};

/// Parses one history line already read as JSON. kParse when required
/// keys are missing or mistyped.
lrd::Expected<BenchHistoryRecord> parse_bench_record(const json::Value& line);

/// Loads a whole .jsonl history file (blank lines skipped). kIo when the
/// file cannot be read; kParse (with the line number) on a bad line.
lrd::Expected<std::vector<BenchHistoryRecord>> load_bench_history(const std::string& path);

struct RegressionConfig {
  /// Trailing records per key that form the baseline.
  std::size_t baseline_window = 8;
  /// Relative slowdown floor (0.10 = flag beyond +10%), wall time.
  double max_slowdown = 0.10;
  /// Noise multiplier: slowdowns within k * MAD of the baseline medians
  /// never flag, whatever the relative threshold says.
  double mad_k = 3.0;
  /// Relative increase floor for gated telemetry metrics.
  double metric_slack = 0.25;
  /// Lower-is-better metric names the detector gates (exact match
  /// against BenchHistoryRecord::metrics keys). slowdown_vs_single_mutex
  /// is the sharded cache's machine-independent scaling ratio (see
  /// bench/micro_serve.cpp).
  std::vector<std::string> gated_metrics = {"iterations", "levels", "mass_drift",
                                            "occupancy_gap", "slowdown_vs_single_mutex"};

  lrd::Status validate() const;
};

/// Verdict for one (key, quantity) pair. One finding is emitted per
/// checked quantity whether or not it regressed, so the report shows
/// what was gated, not only what failed.
struct RegressionFinding {
  std::string key;
  std::string metric;  ///< Empty = wall time; otherwise the gated metric name.
  std::string unit;
  double baseline = 0.0;  ///< Robust baseline center.
  double current = 0.0;   ///< Candidate value.
  double allowed = 0.0;   ///< Absolute increase tolerated.
  std::size_t baseline_records = 0;
  bool regression = false;

  double delta() const noexcept { return current - baseline; }
  /// Relative change vs the baseline center (0 when the center is 0).
  double relative() const noexcept { return baseline != 0.0 ? delta() / baseline : 0.0; }
};

struct RegressionReport {
  std::vector<RegressionFinding> findings;
  std::size_t keys_checked = 0;
  /// Candidate keys with no baseline record (first run of a new bench) —
  /// reported, never flagged.
  std::vector<std::string> keys_without_baseline;
  std::size_t regressions = 0;

  bool any_regression() const noexcept { return regressions > 0; }
  /// Human summary, one line per finding, regressions marked.
  std::string to_text() const;
  /// Machine form (schema: $defs/benchCheck in obs_artifacts.schema.json).
  std::string to_json() const;
};

/// Gates `candidates` (newest record per key; later duplicates win)
/// against the per-key trailing window of `history`. When `candidates`
/// is empty, the newest history record of each key is the candidate and
/// the remainder its baseline — the single-file workflow.
RegressionReport check_regressions(std::vector<BenchHistoryRecord> history,
                                   std::vector<BenchHistoryRecord> candidates,
                                   const RegressionConfig& cfg);

}  // namespace lrd::obs
