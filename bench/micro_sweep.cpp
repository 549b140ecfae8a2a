// micro_sweep — scheduling and caching microbenchmark for the sweep
// runtime.
//
// Solves a deliberately imbalanced loss surface (per-cell solver cost
// grows steeply with the buffer size, and cells are enumerated row-major,
// so a static block partition hands one thread the whole heavy row) two
// ways: with a plain static partition and with the shared-cursor
// executor. Then runs the same surface through the sweep driver with a
// solver result cache attached to measure cold vs warm cost.
//
// Results print to stdout and append to BENCH_history.jsonl
// (--history/--no-history to redirect/disable).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "harness.hpp"
#include "numerics/parallel.hpp"
#include "runtime/cache.hpp"

namespace {

using namespace lrd;

constexpr const char* kUsage =
    "usage: micro_sweep [--threads N] [--filter SUBSTR] [--list] [--repeats N]\n"
    "                   [--warmup N] [--history FILE] [--no-history]\n"
    "       --threads defaults to 8 (the sweep surfaces are small; the\n"
    "       point is scheduling, not machine saturation); LRDQ_THREADS\n"
    "       overrides the default, 0 means hardware concurrency\n"
    "       micro_sweep --help | --version";

/// The baseline the executor replaced: split [0, n) into `threads`
/// contiguous blocks, one std::thread each, no redistribution.
void static_parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                         std::size_t threads) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t p = std::min(threads, n);
  std::vector<std::thread> pool;
  pool.reserve(p);
  for (std::size_t w = 0; w < p; ++w) {
    pool.emplace_back([&, w] {
      for (std::size_t i = w * n / p; i < (w + 1) * n / p; ++i) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv, bench::Harness::value_flags({"threads"}),
                   bench::Harness::bool_flags());
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("micro_sweep");
    std::size_t threads = 8;
    if (args.has("threads") || std::getenv("LRDQ_THREADS")) threads = cli::resolve_threads(args);
    if (threads == 0) threads = std::thread::hardware_concurrency();
    bench::Harness h("micro_sweep", args);

    const dist::Marginal marginal({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
    core::ModelSweepConfig cfg;
    cfg.hurst = 0.85;
    cfg.mean_epoch = 0.05;
    cfg.utilization = 0.8;
    cfg.solver.target_relative_gap = 0.2;

    // Row-major enumeration; solver cost rises steeply with the buffer, so
    // the last rows dominate and land in one or two static blocks.
    const std::vector<double> buffers{0.05, 0.1, 0.2, 0.35, 0.5, 0.7, 0.85, 1.0};
    const std::vector<double> cutoffs{0.1, 1.0, 10.0, 100.0};
    const std::size_t cells = buffers.size() * cutoffs.size();

    const auto solve_cell = [&](std::size_t i) {
      core::ModelConfig mc;
      mc.hurst = cfg.hurst;
      mc.mean_epoch = cfg.mean_epoch;
      mc.utilization = cfg.utilization;
      mc.normalized_buffer = buffers[i / cutoffs.size()];
      mc.cutoff = cutoffs[i % cutoffs.size()];
      (void)core::FluidModel(marginal, mc).solve(cfg.solver).loss_estimate();
    };

    std::printf("micro_sweep: %zu cells, %zu threads\n", cells, threads);

    h.add("static_partition", {1, 3}, [&](bench::Case& c) {
      c.measure_seconds([&] { static_parallel_for(cells, solve_cell, threads); });
      c.metric("threads", static_cast<double>(threads));
      c.metric("cells", static_cast<double>(cells));
    });

    h.add("executor", {1, 3}, [&](bench::Case& c) {
      c.measure_seconds([&] { numerics::parallel_for(cells, solve_cell, threads); });
      c.metric("threads", static_cast<double>(threads));
      for (const auto& rec : h.records())
        if (rec.key == "micro_sweep/static_partition" && rec.stats.median > 0.0)
          c.metric("speedup_vs_static",
                   rec.stats.median / std::max(obs::median_of(c.samples()), 1e-12));
    });

    h.add("sweep_cold_cache", {1, 3}, [&](bench::Case& c) {
      // A fresh cache per sample keeps every pass genuinely cold.
      c.measure_seconds([&] {
        runtime::SolverCache cache;
        core::SweepRunOptions opts;
        opts.threads = threads;
        opts.cache = &cache;
        (void)core::loss_vs_buffer_and_cutoff(marginal, cfg, buffers, cutoffs, opts);
      });
    });

    h.add("sweep_warm_cache", {0, 3}, [&](bench::Case& c) {
      runtime::SolverCache cache;
      core::SweepRunOptions opts;
      opts.threads = threads;
      opts.cache = &cache;
      (void)core::loss_vs_buffer_and_cutoff(marginal, cfg, buffers, cutoffs, opts);  // prime
      const auto primed = cache.stats();
      c.measure_seconds(
          [&] { (void)core::loss_vs_buffer_and_cutoff(marginal, cfg, buffers, cutoffs, opts); });
      const auto finished = cache.stats();
      const auto hits = finished.hits - primed.hits;
      const auto lookups = hits + (finished.misses - primed.misses);
      c.metric("warm_hit_rate",
               lookups == 0 ? 0.0
                            : static_cast<double>(hits) / static_cast<double>(lookups));
    });

    return h.run();
  });
}
