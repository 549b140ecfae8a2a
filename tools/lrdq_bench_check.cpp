// lrdq_bench_check — noise-aware performance-regression gate over the
// bench history (BENCH_history.jsonl, schema lrd-bench-v1).
//
// Two workflows:
//   * single file: the newest record of every key in --history is the
//     candidate, the records before it the baseline — "did my last local
//     bench run regress?";
//   * two files (CI): --candidate holds the records a fresh run just
//     appended to a scratch file, --history the checked-in baseline.
//
// A key regresses when its candidate median exceeds the baseline median
// by more than max(threshold, k * MAD) — repeat noise never fails the
// gate on its own. Gated telemetry metrics (iterations, levels,
// mass_drift, occupancy_gap) use the same rule, so a convergence
// regression is caught even when wall time still looks fine.
//
// Exit codes: 0 clean, 1 regression detected, 2 usage, 3 bad config,
// 4 malformed history, 5 unreadable file or failed --out write.
#include <cstdio>
#include <string>

#include "cli_common.hpp"
#include "obs/regress.hpp"
#include "obs/ring.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lrdq_bench_check --history FILE [--candidate FILE]\n"
    "                        [--baseline-window N] [--max-slowdown-percent P]\n"
    "                        [--mad-k K] [--metric-slack-percent P]\n"
    "                        [--json] [--out FILE]\n"
    "       lrdq_bench_check --help | --version\n"
    "exit codes: 0 no regression, 1 regression beyond noise, 2 usage,\n"
    "            3 bad config, 4 malformed history, 5 unreadable file or\n"
    "            failed --out write";

}  // namespace

int main(int argc, char** argv) {
  using namespace lrd;
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv,
                   {"history", "candidate", "baseline-window", "max-slowdown-percent",
                    "mad-k", "metric-slack-percent", "out"},
                   {"json"});
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("lrdq_bench_check");
    const std::string history_path = args.get("history", "");
    if (history_path.empty()) {
      throw_error(make_diagnostics(ErrorCategory::kInvalidArgument, "lrdq_bench_check",
                                   "a --history file is given", "missing --history"));
    }

    obs::RegressionConfig cfg;
    cfg.baseline_window = args.get_size("baseline-window", cfg.baseline_window);
    cfg.max_slowdown = args.get_double("max-slowdown-percent", 100.0 * cfg.max_slowdown) / 100.0;
    cfg.mad_k = args.get_double("mad-k", cfg.mad_k);
    cfg.metric_slack =
        args.get_double("metric-slack-percent", 100.0 * cfg.metric_slack) / 100.0;
    if (Status s = cfg.validate(); !s) throw_error(s.diagnostics());

    auto history = obs::load_bench_history(history_path);
    if (!history) throw_error(history.diagnostics());
    std::vector<obs::BenchHistoryRecord> candidates;
    if (args.has("candidate")) {
      auto loaded = obs::load_bench_history(args.get("candidate", ""));
      if (!loaded) throw_error(loaded.diagnostics());
      candidates = std::move(loaded).take();
    }

    const obs::RegressionReport report =
        obs::check_regressions(std::move(history).take(), std::move(candidates), cfg);

    const std::string rendered = args.has("json") ? report.to_json() : report.to_text();
    const std::string out_path = args.get("out", "");
    if (out_path.empty()) {
      std::fputs(rendered.c_str(), stdout);
    } else {
      if (!obs::write_file_atomic(out_path, rendered))
        throw_error(make_diagnostics(ErrorCategory::kIo, "lrdq_bench_check",
                                     "output path is writable", "cannot write " + out_path));
      std::printf("wrote %s\n", out_path.c_str());
    }
    return report.any_regression() ? 1 : 0;
  });
}
