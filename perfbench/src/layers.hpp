// Per-layer measurement from outside the program. Each workload hands
// the cells it ran to these probes, which call the layers' public
// functions directly, wrap each probe phase in an obs::Span (category
// "perfbench"), and time it on the process CPU clock:
//
//   replay_queueing   re-solves every cell with collect_telemetry set to
//                     learn (bins, iterations) per level, then replays
//                     each level through increment_pmf_lower/_upper,
//                     overflow_kernel, the DualFoldEngine constructor and
//                     DualFoldEngine::step on a FluidQueueSolver built
//                     from the model's own marginal, epochs, service rate
//                     and buffer. What the replay does not cover (bracket
//                     checks, re-seed, guards, obs hooks) is the residual.
//                     A counting EpochDistribution decorator counts the
//                     ccdf calls of the increment pmfs in an untimed pass.
//   probe_cache       SolverCache::store / lookup on the cells' keys.
//   probe_service     parse_query, QueryService::execute_line (miss, then
//                     hit) and Response::to_json on the cells' queries.
//   probe_process     lrdq_solve as a child process against the same
//                     solve in process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "dist/marginal.hpp"
#include "queueing/solver.hpp"

namespace lrd::perfbench {

/// One model cell as every path (in process, CLI, socket) receives it.
struct Cell {
  dist::Marginal marginal;
  core::ModelConfig model;
  queueing::SolverConfig solver;
};

/// Builds a cell from the marginal's exact support, so the CLI and the
/// wire protocol (which re-parse the %.17g text) see the same numbers.
Cell make_cell(const dist::Marginal& marginal, double hurst, double mean_epoch,
               double utilization, double buffer, double cutoff, double gap,
               std::size_t max_bins);

/// One solve-query line for `cell` (no trailing newline).
std::string query_line(const Cell& cell, const std::string& id);

/// lrdq_solve arguments for `cell`.
std::vector<std::string> solve_argv(const Options& opt, const Cell& cell);

/// Pulls "loss rate: X" and "M = N" out of lrdq_solve's report; false
/// when either is missing.
bool parse_solve_output(const std::string& out, std::string& loss_text, std::size_t& bins,
                        bool& converged);

/// Runs the four probes above over `cells`, adding queueing.*,
/// runtime.cache_*, serve.* and tools.* metrics to `out`. The service and
/// process probes run on the cells that converge.
void measure_layers(const Options& opt, const std::vector<Cell>& cells,
                    std::size_t process_repeats, Outcome& out);

}  // namespace lrd::perfbench
