// Shared plumbing of the end-to-end benchmark (lrd_perfbench): run options, the
// metric record every workload fills, order statistics, child processes
// and the provenance stamp.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace lrd::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans on, per-layer replay, per-layer metrics reported.
  bool trace = false;
  /// Directory holding the lrdq_solve / lrdq_serve binaries.
  std::string tools_dir;
  /// Scratch directory for sockets, logs and trace files (relative paths
  /// keep the unix socket name short).
  std::string work_dir;
};

/// Where a metric goes: the untraced run's result line, the traced run's
/// result line, or the human-readable report only.
enum class MetricKind { kEndToEnd, kLayer, kInfo };

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  MetricKind kind = MetricKind::kInfo;
};

/// Everything one workload run reports.
struct Outcome {
  std::size_t attempted = 0;
  /// Failed, refused, shed or wrong operations (the fail_ratio numerator).
  std::size_t failed = 0;
  /// One line per failed output check.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  /// Counts one operation; a false `ok` also counts it failed and records
  /// `what` as the reason.
  void record(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit, std::size_t samples,
           MetricKind kind);
  bool correct() const noexcept { return failed == 0 && problems.empty(); }
};

/// Linear-interpolation quantile of `v` (q in [0, 1]); NaN when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Median over windows (time slices or passes of a run) of each
/// window's q-quantile; empty windows are skipped. A slow spell of the
/// host shorter than half the run then moves the result little.
double windowed_quantile(const std::vector<std::vector<double>>& windows, double q);

/// Total number of samples across windows.
std::size_t sample_count(const std::vector<std::vector<double>>& windows);

/// Exit status, wall time and peak RSS of a finished child process.
struct ChildExit {
  int code = -1;  ///< Exit code, or 128 + signal when killed.
  double wall_seconds = 0.0;
  double max_rss_mb = 0.0;   ///< Peak RSS (VmHWM) of the child's own image.
  double cpu_seconds = 0.0;  ///< User + system CPU time of the child.
  std::string out;  ///< Captured standard output.
};

/// Runs `argv` to completion, capturing its standard output (standard
/// error is discarded). Wall time covers spawn to reap.
ChildExit run_child(const std::vector<std::string>& argv);

/// A long-running child (the serve daemon) with stdout and stderr sent to
/// `log_path`. The destructor terminates and reaps it if still running.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Records the peak RSS, sends SIGTERM (the daemon drains), then
  /// reaps; safe to call once.
  ChildExit stop();

  /// User + system CPU seconds the running daemon has used so far.
  double cpu_seconds() const;

 private:
  pid_t pid_ = -1;
  Clock::time_point start_;
};

/// User + system CPU seconds of this process so far, all threads.
double self_cpu_seconds();

/// One JSON object naming the commit, host, CPU count, SIMD ISA and build
/// type this result was measured on.
std::string provenance_json();

/// "%.17g": the round-trip form the CLI and the wire protocol parse back
/// bit-exactly.
std::string num17(double v);
std::string join_num17(const std::vector<double>& v, char sep);

}  // namespace lrd::perfbench
