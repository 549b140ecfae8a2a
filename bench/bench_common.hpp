// Shared scaffolding for the figure-reproduction binaries.
//
// Each fig*.cpp binary regenerates one figure of the paper: it prints the
// experiment header, the sweep as an aligned table, a machine-readable CSV
// block, and the qualitative checks the figure supports. Binaries exit
// non-zero if a qualitative check fails, so the bench run doubles as an
// acceptance test of the reproduction.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "cli_common.hpp"
#include "core/experiment.hpp"
#include "obs/clock.hpp"

namespace lrd::bench {

/// Runtime options every figure binary accepts (all optional; the default
/// reproduces the historical "just run the sweep" behaviour):
///   --threads N       worker threads (0 = hardware; LRDQ_THREADS default)
///   --cache-dir DIR   persistent solver result cache; rerunning an
///                     interrupted figure on it solves only unfinished cells
///   --manifest FILE   per-run JSON manifest
///   --solver-telemetry  per-solve convergence records in the manifest
///   --progress        stderr heartbeat (cells done, ETA, cache hit-rate)
///   --metrics-out FILE  metrics snapshot (.json = JSON, else Prometheus)
///   --trace-out FILE  Chrome trace-event JSON (LRDQ_TRACE env default)
/// The cache and manifest are owned here so `sweep` can point into them.
struct FigureOptions {
  core::SweepRunOptions sweep;
  std::string manifest_path;
  std::shared_ptr<runtime::SolverCache> cache;
  std::shared_ptr<runtime::RunManifest> manifest;
  cli::ObsSetup obs;
};

constexpr const char* kFigureUsage =
    "usage: figure binary [--threads N] [--cache-dir DIR] [--manifest FILE]\n"
    "                     [--solver-telemetry] [--progress]\n"
    "                     [--metrics-out FILE] [--trace-out FILE]\n"
    "       figure binary --help | --version";

inline FigureOptions parse_figure_options(int argc, char** argv) {
  cli::Args args(argc, argv, {"threads", "cache-dir", "manifest"},
                 {"solver-telemetry", "progress"});
  if (args.help()) {
    std::printf("%s\n", kFigureUsage);
    std::exit(0);
  }
  if (args.version()) std::exit(cli::print_version(argv && argv[0] ? argv[0] : "figure"));
  FigureOptions fo;
  fo.obs = cli::setup_observability(args);
  fo.sweep.threads = cli::resolve_threads(args);
  if (args.has("cache-dir")) {
    fo.cache = std::make_shared<runtime::SolverCache>(args.get("cache-dir", ""));
    fo.sweep.cache = fo.cache.get();
  }
  fo.manifest_path = args.get("manifest", "");
  if (!fo.manifest_path.empty()) {
    fo.manifest = std::make_shared<runtime::RunManifest>();
    fo.sweep.manifest = fo.manifest.get();
  }
  fo.sweep.solver_telemetry = args.has("solver-telemetry");
  fo.sweep.progress = args.has("progress");
  return fo;
}

/// Writes the manifest a figure run accumulated (if one was requested)
/// and the metrics/trace artifacts (if configured). Called once at the
/// end of every figure run.
inline void finish_manifest(const FigureOptions& fo, const core::SweepTable& table,
                            const char* figure) {
  cli::finish_observability(fo.obs);
  if (!fo.manifest) return;
  fo.manifest->set_tool(figure);
  fo.manifest->set_title(table.title);
  if (!fo.manifest->write_file(fo.manifest_path))
    std::fprintf(stderr, "warning: could not write manifest %s\n", fo.manifest_path.c_str());
}

/// Thin wrapper over the shared steady clock (obs/clock.hpp) — the same
/// time base the harness, executor and trace spans use.
class Stopwatch {
 public:
  Stopwatch() : start_(obs::now()) {}
  double seconds() const { return obs::seconds_since(start_); }

 private:
  obs::SteadyTime start_;
};

inline void print_header(const std::string& figure, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s: %s\n", figure.c_str(), description.c_str());
  std::printf("================================================================\n");
}

inline void print_table(const core::SweepTable& table) {
  table.print(std::cout);
  std::printf("\n--- CSV ---\n");
  table.print_csv(std::cout);
  std::printf("-----------\n");
}

/// Records a named qualitative check; returns its outcome so callers can
/// accumulate an exit code.
inline bool check(const std::string& name, bool ok) {
  std::printf("[%s] %s\n", ok ? " OK " : "FAIL", name.c_str());
  return ok;
}

}  // namespace lrd::bench
