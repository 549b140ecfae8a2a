// lrdq_sweep — regenerate a loss surface (buffer x cutoff) from the
// command line, either from the model (as Figs. 4/5) or by shuffled-trace
// simulation (as Figs. 7/8).
//
//   lrdq_sweep --rates 2,6,10 --probs .3,.4,.3 --buffers .05,.2,1
//              --cutoffs .1,1,10 [--hurst .85] [--mean-epoch .05] [--utilization .8]
//   lrdq_sweep --trace mtv.txt --buffers .01,.1 --cutoffs 1,10,inf --utilization .8
//
// Output: aligned table + CSV on stdout.
#include <cstdio>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "cli_common.hpp"
#include "core/experiment.hpp"
#include "traffic/trace.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lrdq_sweep (--rates R --probs P | --trace FILE)\n"
    "                  --buffers b1,b2,... --cutoffs t1,t2,...\n"
    "                  [--hurst 0.85] [--mean-epoch 0.05] [--utilization 0.8]\n"
    "                  [--gap 0.2] [--seed 7]\n"
    "                  [--threads N] [--cache-dir DIR] [--manifest FILE]\n"
    "                  [--cell-deadline-ms MS [--max-cell-retries N]]\n"
    "                  [--solver-telemetry] [--progress]\n"
    "                  [--metrics-out FILE] [--trace-out FILE]\n"
    "       lrdq_sweep --help | --version\n"
    "runtime: --threads 0 (or unset) uses hardware concurrency; the\n"
    "      LRDQ_THREADS env var supplies the default. --cache-dir enables\n"
    "      the on-disk solver result cache; rerunning an interrupted sweep\n"
    "      with the same --cache-dir solves only the unfinished cells.\n"
    "      --manifest records per-cell timings and cache/executor stats\n"
    "      as JSON. --cell-deadline-ms bounds each cell's solve wall time:\n"
    "      a cell that exceeds it keeps a valid (wide) loss bracket and is\n"
    "      retried up to --max-cell-retries times (default 1) at coarser\n"
    "      bins before being marked degraded; timed-out/retried/degraded\n"
    "      cells are recorded per-cell in the manifest.\n"
    "observability: --solver-telemetry attaches per-solve convergence\n"
    "      records to the manifest's cell_times; --progress draws a\n"
    "      stderr heartbeat (cells done, ETA, cache hit-rate);\n"
    "      --metrics-out writes a metrics snapshot (.json = JSON, else\n"
    "      Prometheus text); --trace-out (or LRDQ_TRACE) writes a Chrome\n"
    "      trace-event JSON loadable in Perfetto.\n"
    "forensics: --access-log FILE (LRDQ_ACCESS_LOG) appends one JSONL record\n"
    "      per run; --dump-dir DIR (LRDQ_DUMP_DIR) arms crash-time\n"
    "      diagnostics bundles; --profile-out FILE (LRDQ_PROFILE) samples\n"
    "      CPU stacks and writes a folded lrd-profile-v1 profile keyed by\n"
    "      query_id at exit.\n"
    "note: list entries for --cutoffs may not include 'inf'; pass a large\n"
    "      number for the model, or use --trace mode where the largest\n"
    "      cutoff >= trace duration behaves as unshuffled.";

}  // namespace

int main(int argc, char** argv) {
  using namespace lrd;
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv,
                   {"rates", "probs", "trace", "buffers", "cutoffs", "hurst", "mean-epoch",
                    "utilization", "gap", "seed", "threads", "cache-dir", "manifest",
                    "cell-deadline-ms", "max-cell-retries"},
                   {"solver-telemetry", "progress"});
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("lrdq_sweep");
    const cli::ObsSetup obs_setup = cli::setup_observability(args);
    const cli::ForensicsSetup forensics = cli::setup_forensics(args, "lrdq_sweep");
    // Run-level correlation id. Cells solved on executor workers mint
    // their own per-cell ids (the worker threads never see this TLS
    // scope), so the profile distinguishes the cells; this scope covers
    // the driver thread's own work.
    obs::QueryScope qscope(obs::mint_query_id());
    const auto buffers = args.get_list("buffers", {0.05, 0.2, 1.0});
    const auto cutoffs = args.get_list("cutoffs", {0.1, 1.0, 10.0});
    const double utilization = args.get_double("utilization", 0.8);

    std::optional<runtime::SolverCache> cache;
    if (args.has("cache-dir")) cache.emplace(args.get("cache-dir", ""));
    runtime::RunManifest manifest;
    const std::string manifest_path = args.get("manifest", "");

    core::SweepRunOptions opts;
    opts.threads = cli::resolve_threads(args);
    opts.cache = cache ? &*cache : nullptr;
    opts.manifest = manifest_path.empty() ? nullptr : &manifest;
    opts.solver_telemetry = args.has("solver-telemetry");
    opts.progress = args.has("progress");
    opts.progress_label = "lrdq_sweep";
    opts.cell_deadline_ms = cli::resolve_deadline_ms(args, "cell-deadline-ms");
    opts.max_cell_retries = args.get_size("max-cell-retries", 1);

    manifest.set_tool("lrdq_sweep");
    for (const char* key : {"rates", "probs", "trace", "buffers", "cutoffs", "hurst",
                            "mean-epoch", "utilization", "gap", "seed", "cell-deadline-ms",
                            "max-cell-retries"})
      if (args.has(key)) manifest.add_config(key, args.get(key, ""));

    core::SweepTable table;
    if (args.has("trace")) {
      const auto trace = traffic::RateTrace::load_file(args.get("trace", ""));
      table = core::shuffle_loss_vs_buffer_and_cutoff(trace, utilization, buffers, cutoffs,
                                                      args.get_size("seed", 7), opts);
    } else {
      if (!args.has("rates") || !args.has("probs"))
        throw std::invalid_argument("need either --trace or both --rates and --probs");
      const dist::Marginal marginal(args.get_list("rates", {}), args.get_list("probs", {}));
      core::ModelSweepConfig cfg;
      cfg.hurst = args.get_double("hurst", 0.85);
      cfg.mean_epoch = args.get_double("mean-epoch", 0.05);
      cfg.utilization = utilization;
      cfg.solver.target_relative_gap = args.get_double("gap", 0.2);
      table = core::loss_vs_buffer_and_cutoff(marginal, cfg, buffers, cutoffs, opts);
    }
    table.print(std::cout);
    std::printf("\n");
    table.print_csv(std::cout);
    if (!manifest_path.empty()) {
      manifest.set_title(table.title);
      if (!manifest.write_file(manifest_path))
        std::fprintf(stderr, "warning: could not write manifest %s\n", manifest_path.c_str());
    }
    cli::finish_forensics(forensics);
    cli::finish_observability(obs_setup);
    return table.ok() ? 0 : 1;
  });
}
