// lrdq_solve — solve the finite-buffer fluid queue from the command line.
//
//   lrdq_solve --rates 2,6,10,14,18 --probs 0.1,0.2,0.4,0.2,0.1
//              --hurst 0.85 --mean-epoch 0.05 --cutoff 10
//              --utilization 0.8 --buffer 0.5 [--gap 0.1] [--max-bins 8192]
//
// Prints the calibrated model parameters, the loss-rate bracket, and
// occupancy/delay quantiles. `--cutoff inf` selects the fully
// self-similar model.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "cli_common.hpp"
#include "core/correlation_horizon.hpp"
#include "core/model.hpp"
#include "obs/ring.hpp"
#include "queueing/occupancy.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lrdq_solve --rates r1,r2,... --probs p1,p2,...\n"
    "                  [--hurst 0.85] [--mean-epoch 0.05] [--cutoff 10|inf]\n"
    "                  [--utilization 0.8] [--buffer 0.5] [--gap 0.2] [--max-bins 16384]\n"
    "                  [--deadline-ms MS]\n"
    "                  [--telemetry-out FILE] [--metrics-out FILE] [--trace-out FILE]\n"
    "       lrdq_solve --help | --version\n"
    "robustness: --deadline-ms bounds the solve's wall time; on expiry the\n"
    "      bracket reported is valid but wide and the diagnostic says\n"
    "      deadline_exceeded (exit 6, never a hang).\n"
    "observability: --telemetry-out writes per-level convergence telemetry\n"
    "      (JSON); --metrics-out writes a metrics snapshot (.json = JSON,\n"
    "      else Prometheus text); --trace-out (or LRDQ_TRACE) writes a\n"
    "      Chrome trace-event JSON loadable in Perfetto.\n"
    "forensics: --access-log FILE (LRDQ_ACCESS_LOG) appends one JSONL record\n"
    "      per solve; --slow-query-ms MS flags slow ones; --dump-dir DIR\n"
    "      (LRDQ_DUMP_DIR) arms crash-time diagnostics bundles;\n"
    "      --profile-out FILE (LRDQ_PROFILE) samples CPU stacks and writes\n"
    "      a folded lrd-profile-v1 profile keyed by query_id at exit.\n"
    "exit codes: 0 ok, 1 not converged, 2 usage, 3 bad config,\n"
    "            4 parse, 5 I/O, 6 numerical guard / budget";

/// Atomic write of the telemetry JSON; warns but never fails the solve
/// (same contract as finish_observability).
void write_telemetry(const std::string& path, const lrd::obs::SolverTelemetry& telemetry) {
  if (!lrd::obs::write_file_atomic(path, telemetry.to_json() + "\n"))
    std::fprintf(stderr, "warning: could not write telemetry to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrd;
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv,
                   {"rates", "probs", "hurst", "mean-epoch", "cutoff", "utilization", "buffer",
                    "gap", "max-bins", "deadline-ms", "telemetry-out"});
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("lrdq_solve");
    const cli::ObsSetup obs_setup = cli::setup_observability(args);
    if (!args.has("rates") || !args.has("probs"))
      throw std::invalid_argument("--rates and --probs are required");

    const dist::Marginal marginal(args.get_list("rates", {}), args.get_list("probs", {}));
    core::ModelConfig cfg;
    cfg.hurst = args.get_double("hurst", 0.85);
    cfg.mean_epoch = args.get_double("mean-epoch", 0.05);
    const std::string cutoff = args.get("cutoff", "10");
    cfg.cutoff = cutoff == "inf" ? std::numeric_limits<double>::infinity() : std::stod(cutoff);
    cfg.utilization = args.get_double("utilization", 0.8);
    cfg.normalized_buffer = args.get_double("buffer", 0.5);

    const core::FluidModel model(marginal, cfg);
    std::printf("model: %zu rates, mean %.4f Mb/s, std %.4f Mb/s\n", marginal.size(),
                marginal.mean(), marginal.stddev());
    std::printf("       alpha = %.4f, theta = %.5f s, T_c = %s s\n", model.alpha(),
                model.theta(), cutoff.c_str());
    std::printf("queue: c = %.4f Mb/s, B = %.4f Mb (%.3f s)\n", model.service_rate(),
                model.buffer(), cfg.normalized_buffer);

    queueing::SolverConfig scfg;
    scfg.target_relative_gap = args.get_double("gap", 0.2);
    scfg.max_bins = args.get_size("max-bins", 1 << 14);
    scfg.deadline_ms = cli::resolve_deadline_ms(args, "deadline-ms");
    const std::string telemetry_path = args.get("telemetry-out", "");
    scfg.collect_telemetry = !telemetry_path.empty();
    const cli::ForensicsSetup forensics = cli::setup_forensics(args, "lrdq_solve");
    // One correlation id for the whole run: the solve's flight events,
    // access record, spans and profile samples all join on it.
    obs::QueryScope qscope(obs::mint_query_id());
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = model.solve(scfg);
    if (obs::EventLog::global().active()) {
      obs::AccessRecord rec;
      rec.tool = "lrdq_solve";
      rec.op = "solve";
      rec.status = queueing::solver_stop_name(result.stop);
      rec.code = result.exit_code();
      rec.wall_ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      rec.bracket_width = result.loss.relative_gap();
      if (!result.status.is_ok()) rec.diagnostic = result.status.describe();
      obs::EventLog::global().append(rec);
    }

    std::printf("\nloss rate: %.6e  (bracket [%.6e, %.6e], rel. gap %.3f)\n",
                result.loss_estimate(), result.loss.lower, result.loss.upper,
                result.loss.relative_gap());
    std::printf("solver: M = %zu, %zu iterations, %zu level(s), %s (%s)\n", result.final_bins,
                result.iterations, result.levels,
                result.converged ? "converged" : "NOT converged",
                queueing::solver_stop_name(result.stop));
    if (!result.status.is_ok()) {
      std::printf("diagnostic: %s\n", result.status.describe().c_str());
      if (result.stop == queueing::SolverStop::kGuardTripped)
        std::printf("            reported bracket is from the last healthy refinement level"
                    " (%zu)\n",
                    result.last_healthy_level);
    }
    std::printf("mean occupancy: [%.4f, %.4f] Mb\n", result.mean_queue_lower,
                result.mean_queue_upper);
    for (double p : {0.5, 0.9, 0.99}) {
      const auto d = queueing::delay_quantile(result, model.buffer(), model.service_rate(), p);
      std::printf("delay p%.0f: [%.4f, %.4f] ms\n", p * 100.0, d.lower * 1e3, d.upper * 1e3);
    }
    if (!std::isinf(model.epochs()->variance())) {
      std::printf("correlation horizon (Eq. 26, p = 0.05): %.3f s\n",
                  core::correlation_horizon(marginal, *model.epochs(), model.buffer()));
    }
    if (!telemetry_path.empty()) write_telemetry(telemetry_path, result.telemetry);
    cli::finish_forensics(forensics);
    cli::finish_observability(obs_setup);
    return result.exit_code();
  });
}
