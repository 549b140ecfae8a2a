// lrd_perfbench — end-to-end benchmark runner.
//
//   lrd_perfbench --workload sweep_cold|solve_tight|serve_mixed|all
//                 --seed N --seconds S --trace 0|1
//                 --tools-dir DIR --work-dir DIR
//
// Prints a report (provenance, every metric with unit and sample count,
// failed checks) and, as the last line of standard output, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics for --trace 0, the per-layer metrics for --trace 1. A traced
// run also writes its own spans as Chrome trace JSON into the work
// directory. perfbench/run.py builds the binaries and supplies the two
// directories.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace lrd::perfbench;

constexpr const char* kUsage =
    "usage: lrd_perfbench --workload sweep_cold|solve_tight|serve_mixed|all --seed N\n"
    "                     --seconds S --trace 0|1 --tools-dir DIR --work-dir DIR";

/// Residual share above which the replay no longer accounts for a solve.
constexpr double kResidualBudget = 0.05;

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--tools-dir") {
      opt.tools_dir = value;
    } else if (flag == "--work-dir") {
      opt.work_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || opt.tools_dir.empty() || opt.work_dir.empty() || !(opt.seconds > 0.0))
    throw std::invalid_argument("--workload, --tools-dir, --work-dir and --seconds > 0 are required");
  return opt;
}

Outcome run_workload(const Options& opt) {
  if (opt.workload == "sweep_cold") return run_sweep_cold(opt);
  if (opt.workload == "solve_tight") return run_solve_tight(opt);
  if (opt.workload == "serve_mixed") return run_serve_mixed(opt);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

bool reported(const Metric& m, bool trace) {
  return m.kind == (trace ? MetricKind::kLayer : MetricKind::kEndToEnd);
}

void print_report(const Options& opt, const Outcome& out) {
  std::printf("== %s  seed %llu  %.0f s  %s\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  std::printf("   %-34s %16s  %-6s %9s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : out.metrics)
    std::printf(" %c %-34s %16.6g  %-6s %9zu\n", reported(m, opt.trace) ? '*' : ' ',
                m.name.c_str(), m.value, m.unit.c_str(), m.samples);
  std::printf("   %-34s %16.6g  %-6s %9zu\n", "fail_ratio",
              out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 0.0,
              "ratio", out.attempted);
  for (const Metric& m : out.metrics)
    if (m.name == "queueing.residual_share" && m.value > kResidualBudget)
      std::printf("   FLAG: residual share %.1f%% is above the %.0f%% budget: the replayed layers"
                  " do not account for the solve\n",
                  m.value * 100.0, kResidualBudget * 100.0);
  const std::size_t shown = std::min<std::size_t>(out.problems.size(), 20);
  for (std::size_t i = 0; i < shown; ++i) std::printf("   FAILED: %s\n", out.problems[i].c_str());
  if (out.problems.size() > shown)
    std::printf("   ... %zu more failed checks\n", out.problems.size() - shown);
}

std::string result_json(const Outcome& out, bool trace, const std::string& prefix) {
  std::string json;
  for (const Metric& m : out.metrics) {
    if (!reported(m, trace)) continue;
    if (!json.empty()) json += ", ";
    json += lrd::obs::json::escape(prefix + m.name) + ": {\"value\": " + num17(m.value) +
            ", \"unit\": " + lrd::obs::json::escape(m.unit) + "}";
  }
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lrd_perfbench: %s\n%s\n", e.what(), kUsage);
    return 2;
  }
  try {
    ::mkdir(opt.work_dir.c_str(), 0755);
    if (opt.trace) lrd::obs::TraceSession::enable();
    std::printf("provenance: %s\n", provenance_json().c_str());

    std::vector<std::string> names{opt.workload};
    if (opt.workload == "all") names = {"sweep_cold", "solve_tight", "serve_mixed"};
    bool correct = true;
    std::size_t attempted = 0, failed = 0;
    std::string metrics;
    for (const std::string& name : names) {
      Options one = opt;
      one.workload = name;
      const Outcome out = run_workload(one);
      print_report(one, out);
      correct = correct && out.correct();
      attempted += out.attempted;
      failed += out.failed;
      const std::string part = result_json(out, opt.trace, names.size() > 1 ? name + "." : "");
      if (!part.empty()) metrics += (metrics.empty() ? "" : ", ") + part;
    }
    if (opt.trace) {
      const std::string path =
          opt.work_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
      if (lrd::obs::TraceSession::write_file(path))
        std::printf("trace: %s (%zu spans, %llu dropped)\n", path.c_str(),
                    lrd::obs::TraceSession::recorded(),
                    static_cast<unsigned long long>(lrd::obs::TraceSession::dropped()));
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
                correct ? "true" : "false", attempted, failed, metrics.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "lrd_perfbench: %s\n", e.what());
    return 1;
  }
}
