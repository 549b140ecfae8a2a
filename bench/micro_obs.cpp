// micro_obs — overhead microbenchmark for the lrd::obs instrumentation.
//
// The observability layer promises to be effectively free when nothing is
// listening: a disabled span is one relaxed atomic load, a counter
// increment is one relaxed fetch_add on a sharded cell, and a histogram
// observe is a frexp plus one fetch_add. This benchmark prices each of
// those primitives, then runs the same small model sweep with tracing off
// and on to bound the end-to-end overhead (budget: < 2% wall time).
//
// The overhead estimate is judged against the repeat-noise floor: when
// the measured delta is inside the jitter of the repeats, the reported
// overhead clamps at 0 and the record carries below_noise_floor=1 — a
// "negative overhead" is a measurement artifact, not a speedup.
//
// Results print to stdout and append to BENCH_history.jsonl
// (--history/--no-history to redirect/disable).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "harness.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace {

using namespace lrd;

constexpr const char* kUsage =
    "usage: micro_obs [--threads N] [--filter SUBSTR] [--list] [--repeats N]\n"
    "                 [--warmup N] [--history FILE] [--no-history]\n"
    "       --threads defaults to 4 (counter-contention case only);\n"
    "       LRDQ_THREADS overrides the default, 0 means hardware\n"
    "       concurrency\n"
    "       micro_obs --help | --version";

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv, bench::Harness::value_flags({"threads"}),
                   bench::Harness::bool_flags());
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("micro_obs");
    std::size_t threads = 4;
    if (args.has("threads") || std::getenv("LRDQ_THREADS")) threads = cli::resolve_threads(args);
    if (threads == 0) threads = std::thread::hardware_concurrency();
    bench::Harness h("micro_obs", args);

    // --- primitive costs -------------------------------------------------
    constexpr std::size_t kIters = 1u << 21;

    h.add("span_disabled", {1, 5}, [](bench::Case& c) {
      obs::TraceSession::disable();
      c.measure_ns_per_iter(kIters, [](std::size_t) {
        obs::Span span("bench.noop", "bench");
      });
    });

    h.add("span_enabled", {1, 5}, [](bench::Case& c) {
      obs::TraceSession::enable();
      c.measure_ns_per_iter(kIters, [](std::size_t) {
        obs::Span span("bench.noop", "bench");
      });
      obs::TraceSession::disable();
      obs::TraceSession::reset();
    });

    h.add("counter_inc", {1, 5}, [](bench::Case& c) {
      obs::Counter& counter = obs::Registry::global().counter("bench_obs_counter", "scratch");
      c.measure_ns_per_iter(kIters, [&](std::size_t) { counter.inc(); });
    });

    // Contended increments: all threads hammer the same counter; sharding
    // should keep this near the single-thread cost rather than serializing
    // on one cache line.
    h.add("counter_inc_contended", {1, 3}, [threads](bench::Case& c) {
      c.set_unit("ns");
      obs::Counter& counter = obs::Registry::global().counter("bench_obs_counter", "scratch");
      const std::size_t per_thread = kIters / threads;
      const auto batch = [&] {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        const obs::SteadyTime t0 = obs::now();
        for (std::size_t w = 0; w < threads; ++w)
          pool.emplace_back([&] {
            for (std::size_t i = 0; i < per_thread; ++i) counter.inc();
          });
        for (auto& th : pool) th.join();
        return obs::seconds_since(t0) * 1e9 / static_cast<double>(per_thread * threads);
      };
      for (std::size_t i = 0; i < c.warmup(); ++i) (void)batch();
      for (std::size_t i = 0; i < c.repeats(); ++i) c.add_sample(batch());
      c.metric("threads", static_cast<double>(threads));
    });

    // Flight-recorder append: the always-on forensic path every serve
    // query and solver level crosses. Budget: same order as a counter
    // increment plus the 8-word event store.
    h.add("event_append", {1, 5}, [](bench::Case& c) {
      c.measure_ns_per_iter(kIters, [](std::size_t i) {
        obs::flight::record(obs::flight::EventKind::kCacheHit, "bench", i, 0, 0.0);
      });
    });

    // Profiler marker left in hot paths while no profile is requested:
    // must stay one relaxed load (the solver drops one per refinement
    // level unconditionally). Budget gated in CI perf-smoke: ~2 ns.
    h.add("profiler_disabled", {1, 5}, [](bench::Case& c) {
      obs::profiler::stop();
      c.measure_ns_per_iter(kIters, [](std::size_t) { obs::profiler::sample_now(); });
    });

    // Manual-mode capture: the frame-pointer walk + ring publish that
    // each sample_now() marker costs while a profile is being taken.
    h.add("profiler_sample", {1, 5}, [](bench::Case& c) {
      obs::profiler::Options popt;
      popt.interval_us = 0;  // markers only; no SIGPROF during timing
      obs::profiler::start(popt);
      c.measure_ns_per_iter(1u << 14, [](std::size_t) { obs::profiler::sample_now(); });
      obs::profiler::stop();
      obs::profiler::reset();
    });

    h.add("histogram_observe", {1, 5}, [](bench::Case& c) {
      obs::Histogram& histogram =
          obs::Registry::global().histogram("bench_obs_histogram", "scratch");
      c.measure_ns_per_iter(kIters, [&](std::size_t i) {
        histogram.observe(1e-6 * static_cast<double>(1 + (i & 1023)));
      });
    });

    // --- end-to-end: instrumented sweep, tracing off vs on ---------------
    const dist::Marginal marginal({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
    core::ModelSweepConfig cfg;
    cfg.hurst = 0.85;
    cfg.mean_epoch = 0.05;
    cfg.utilization = 0.8;
    cfg.solver.target_relative_gap = 0.2;
    const std::vector<double> buffers{0.05, 0.2, 0.5};
    const std::vector<double> cutoffs{0.1, 1.0, 10.0};
    core::SweepRunOptions opts;
    opts.threads = 1;  // serial, so the delta is not hidden by scheduling noise

    const auto run_sweep = [&] {
      (void)core::loss_vs_buffer_and_cutoff(marginal, cfg, buffers, cutoffs, opts);
    };

    h.add("sweep_tracing_off", {1, 3}, [&](bench::Case& c) {
      obs::TraceSession::disable();
      c.measure_seconds(run_sweep);
    });

    h.add("sweep_tracing_on", {1, 3}, [&](bench::Case& c) {
      obs::TraceSession::enable();
      c.measure_seconds(run_sweep);
      obs::TraceSession::disable();
      obs::TraceSession::reset();
      for (const auto& rec : h.records()) {
        if (rec.key != "micro_obs/sweep_tracing_off") continue;
        const obs::OverheadEstimate overhead =
            obs::estimate_overhead(rec.stats, obs::robust_stats(c.samples()));
        c.metric("tracing_overhead_percent", overhead.percent);
        c.metric("tracing_overhead_raw_percent", overhead.raw_percent);
        c.metric("noise_floor_percent", overhead.noise_floor_percent);
        c.metric("below_noise_floor", overhead.below_noise_floor ? 1.0 : 0.0);
        c.metric("overhead_budget_percent", 2.0);
        std::printf("tracing overhead: %+.2f%% raw, %.2f%% clamped (noise floor %.2f%%%s)\n",
                    overhead.raw_percent, overhead.percent, overhead.noise_floor_percent,
                    overhead.below_noise_floor ? ", below noise floor" : "");
      }
    });

    return h.run();
  });
}
