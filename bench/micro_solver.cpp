// micro_solver — microbenchmarks for the performance claims in the
// paper's Section II:
//   * the FFT-based discrete convolution reduces the per-iteration cost
//     from O(M^2) to O(M log M) — we time both paths across M;
//   * "the typical runtime was less than a second on a workstation" — we
//     time full solves at figure-grade accuracy, and record the solver's
//     convergence telemetry (iteration count, mass drift, occupancy gap)
//     so lrdq_bench_check can flag convergence regressions, not just
//     wall-time ones;
//   * the two layers of a solve: one level's build (increment pmfs,
//     overflow kernel, engine construction) and the per-epoch fold step;
//   * supporting paths: trace-driven queue simulation, fGn generation.
//
// Results print to stdout and append to BENCH_history.jsonl
// (--history/--no-history to redirect/disable).
#include <algorithm>
#include <complex>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/traces.hpp"
#include "dist/truncated_pareto.hpp"
#include "harness.hpp"
#include "numerics/convolution.hpp"
#include "numerics/fft_plan.hpp"
#include "numerics/grid.hpp"
#include "numerics/random.hpp"
#include "numerics/simd.hpp"
#include "queueing/solver.hpp"
#include "queueing/trace_queue_sim.hpp"
#include "traffic/fgn.hpp"

namespace {

using namespace lrd;

constexpr const char* kUsage =
    "usage: micro_solver [--filter SUBSTR] [--list] [--repeats N] [--warmup N]\n"
    "                    [--history FILE] [--no-history]\n"
    "       micro_solver --help | --version";

std::vector<double> random_pmf(std::size_t n, std::uint64_t seed) {
  numerics::Rng rng(seed);
  std::vector<double> v(n);
  double total = 0.0;
  for (auto& x : v) {
    x = rng.uniform();
    total += x;
  }
  for (auto& x : v) x /= total;
  return v;
}

queueing::FluidQueueSolver figure_solver() {
  auto mtv = core::mtv_model();
  const double c = mtv.marginal.service_rate_for_utilization(mtv.utilization);
  const double alpha = dist::TruncatedPareto::alpha_from_hurst(mtv.hurst);
  auto epochs = std::make_shared<const dist::TruncatedPareto>(
      dist::TruncatedPareto::theta_from_mean_epoch(mtv.mean_epoch, alpha), alpha, 10.0);
  return queueing::FluidQueueSolver(mtv.marginal, epochs, c, 0.5 * c);
}

/// Times `roundtrip` through the harness on the dispatched kernel table,
/// then on the scalar table with the same warmup and repeats, and records
/// the scalar median as scalar_ns and speedup_vs_scalar (1.0 when the
/// dispatcher already selected scalar).
template <typename Fn>
void time_against_scalar_table(bench::Case& c, std::size_t iters, Fn&& roundtrip) {
  c.measure_ns_per_iter(iters, [&](std::size_t) { roundtrip(); });
  const double simd_ns = obs::robust_stats(c.samples()).median;
  numerics::simd::set_active_kernels_for_testing(numerics::simd::Isa::kScalar);
  const auto batch = [&] {
    const obs::SteadyTime t0 = obs::now();
    for (std::size_t i = 0; i < iters; ++i) roundtrip();
    return obs::seconds_since(t0) * 1e9 / static_cast<double>(iters);
  };
  for (std::size_t i = 0; i < c.warmup(); ++i) (void)batch();
  std::vector<double> scalar_samples;
  for (std::size_t i = 0; i < c.repeats(); ++i) scalar_samples.push_back(batch());
  numerics::simd::reset_active_kernels_for_testing();
  const double scalar_ns = obs::robust_stats(scalar_samples).median;
  c.metric("scalar_ns", scalar_ns);
  if (simd_ns > 0.0) c.metric("speedup_vs_scalar", scalar_ns / simd_ns);
}

/// Registers one full-solve case; the solver telemetry rides on the
/// record as gated metrics.
void add_solve_case(bench::Harness& h, const std::string& name, double gap,
                    std::size_t max_bins) {
  h.add(name, {1, 5}, [gap, max_bins](bench::Case& c) {
    auto solver = figure_solver();
    queueing::SolverConfig cfg;
    cfg.target_relative_gap = gap;
    cfg.max_bins = max_bins;
    cfg.collect_telemetry = true;
    queueing::SolverResult last;
    c.measure_seconds([&] { last = solver.solve(cfg); });
    c.metric("iterations", static_cast<double>(last.iterations));
    c.metric("levels", static_cast<double>(last.levels));
    double drift = 0.0, occupancy = 0.0;
    for (const auto& level : last.telemetry.levels) {
      drift = std::max(drift, level.mass_drift);
      occupancy = std::max(occupancy, level.occupancy_gap);
    }
    c.metric("mass_drift", drift);
    c.metric("occupancy_gap", occupancy);
    c.metric("converged", last.converged ? 1.0 : 0.0);
  });
}

}  // namespace

int main(int argc, char** argv) {
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv, bench::Harness::value_flags(), bench::Harness::bool_flags());
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("micro_solver");
    bench::Harness h("micro_solver", args);

    for (const std::size_t m : {std::size_t{64}, std::size_t{256}, std::size_t{1024},
                                std::size_t{4096}}) {
      h.add("convolve_direct/" + std::to_string(m), {1, 5}, [m](bench::Case& c) {
        const auto q = random_pmf(m + 1, 1);
        const auto w = random_pmf(2 * m + 1, 2);
        const std::size_t iters = std::max<std::size_t>(1, (4096 * 4096) / (m * m));
        c.measure_ns_per_iter(iters,
                              [&](std::size_t) { (void)numerics::convolve_direct(q, w); });
      });
    }
    for (const std::size_t m :
         {std::size_t{64}, std::size_t{1024}, std::size_t{16384}}) {
      h.add("convolve_fft/" + std::to_string(m), {1, 5}, [m](bench::Case& c) {
        const auto q = random_pmf(m + 1, 1);
        const auto w = random_pmf(2 * m + 1, 2);
        const std::size_t iters = std::max<std::size_t>(1, 16384 / m);
        c.measure_ns_per_iter(iters,
                              [&](std::size_t) { (void)numerics::convolve_fft(q, w); });
      });
    }

    h.add("plan_cache/lookup", {1, 5}, [](bench::Case& c) {
      // Steady-state cost of the mutex-guarded table hit (the plan is
      // built on the warmup pass).
      (void)numerics::fft_plan(4096);
      c.measure_ns_per_iter(4096, [](std::size_t) { (void)numerics::fft_plan(4096); });
    });
    h.add("plan_cache/fft/4096", {1, 5}, [](bench::Case& c) {
      // Precomputed-table complex transform, forward + normalized inverse.
      constexpr std::size_t n = 4096;
      const numerics::FftPlan& plan = numerics::fft_plan(n);
      const auto seed = random_pmf(n, 3);
      std::vector<std::complex<double>> buf(n);
      for (std::size_t i = 0; i < n; ++i) buf[i] = seed[i];
      c.measure_ns_per_iter(16, [&](std::size_t) {
        plan.forward(buf.data());
        plan.inverse(buf.data());
        for (auto& z : buf) z *= 1.0 / static_cast<double>(n);
      });
    });
    h.add("plan_cache/rfft_roundtrip/4096", {1, 5}, [](bench::Case& c) {
      // Real-input forward + inverse via the conjugate-symmetric half
      // spectrum — the per-call cost inside convolve_fft, the fGn
      // generator and the periodogram estimators.
      constexpr std::size_t n = 4096;
      const numerics::RealFft rfft(n);
      const auto x = random_pmf(n, 4);
      std::vector<std::complex<double>> spec(rfft.spectrum_size());
      std::vector<double> out(n);
      c.measure_ns_per_iter(16, [&](std::size_t) {
        rfft.forward(x.data(), x.size(), spec.data());
        rfft.inverse(spec.data(), out.data());
      });
    });
    h.add("plan_cache/fft_simd", {1, 5}, [](bench::Case& c) {
      // The complex transform on the runtime-dispatched kernel table
      // against the scalar table.
      constexpr std::size_t n = 4096;
      const numerics::FftPlan& plan = numerics::fft_plan(n);
      const auto seed = random_pmf(n, 5);
      std::vector<std::complex<double>> buf(n);
      for (std::size_t i = 0; i < n; ++i) buf[i] = seed[i];
      time_against_scalar_table(c, 16, [&] {
        plan.forward(buf.data());
        plan.inverse(buf.data());
        for (auto& z : buf) z *= 1.0 / static_cast<double>(n);
      });
    });
    h.add("plan_cache/rfft_roundtrip_simd", {1, 5}, [](bench::Case& c) {
      // The real round-trip on the dispatched kernel table against the
      // scalar table.
      constexpr std::size_t n = 4096;
      const numerics::RealFft rfft(n);
      const auto x = random_pmf(n, 6);
      std::vector<std::complex<double>> spec(rfft.spectrum_size());
      std::vector<double> out(n);
      time_against_scalar_table(c, 16, [&] {
        rfft.forward(x.data(), x.size(), spec.data());
        rfft.inverse(spec.data(), out.data());
      });
    });

    for (const std::size_t m : {std::size_t{128}, std::size_t{4096}}) {
      h.add("level_build/" + std::to_string(m), {1, 5}, [m](bench::Case& c) {
        // One level's build as perfbench's layer replay defines it: the
        // public increment pmfs, the M + 1 overflow-kernel points and the
        // fold engine's constructor.
        auto solver = figure_solver();
        const numerics::Grid grid(solver.buffer(), m);
        std::vector<double> kernel(m + 1);
        const std::size_t iters = std::max<std::size_t>(1, 1024 / m);
        c.measure_ns_per_iter(iters, [&](std::size_t) {
          queueing::DualFoldEngine engine(solver.increment_pmf_lower(m),
                                          solver.increment_pmf_upper(m), m);
          for (std::size_t j = 0; j <= m; ++j) kernel[j] = solver.overflow_kernel(grid.value(j));
        });
      });
    }

    for (const std::size_t m : {std::size_t{128}, std::size_t{1024}, std::size_t{4096},
                                std::size_t{16384}}) {
      h.add("fold_step/" + std::to_string(m), {1, 5}, [m](bench::Case& c) {
        // The solver's per-epoch step: the packed next_pow2(2M)-point
        // circular transform (input and product spectrum written in
        // bit-reversed order, so no swap pass), then one pass for both
        // chains' exact atoms, one for their health scan and clamp, and
        // one renormalizing both.
        auto solver = figure_solver();
        queueing::DualFoldEngine engine(solver.increment_pmf_lower(m),
                                        solver.increment_pmf_upper(m), m);
        std::vector<double> q_low(m + 1, 0.0), q_high(m + 1, 0.0);
        q_low[0] = 1.0;
        q_high[m] = 1.0;
        queueing::StepHealth low_health, high_health;
        const std::size_t iters = std::max<std::size_t>(4, 16384 / m);
        c.measure_ns_per_iter(iters, [&](std::size_t) {
          engine.step(q_low, q_high, low_health, high_health);
        });
      });
    }

    add_solve_case(h, "solver_figure_point", 0.2, 1 << 12);
    add_solve_case(h, "solver_tight_point", 0.02, 1 << 14);

    for (const std::size_t m : {std::size_t{512}, std::size_t{4096}}) {
      h.add("solver_iteration_at/" + std::to_string(m), {1, 5}, [m](bench::Case& c) {
        // Cost of a fixed number of bound iterations at a fixed M.
        auto solver = figure_solver();
        c.measure_seconds([&] { (void)solver.iterate_fixed(m, 32); });
      });
    }

    h.add("trace_queue_sim", {1, 5}, [](bench::Case& c) {
      auto mtv = core::mtv_model();
      c.measure_seconds(
          [&] { (void)queueing::simulate_trace_queue_normalized(mtv.trace, 0.8, 0.5); });
      c.metric("trace_samples", static_cast<double>(mtv.trace.size()));
    });

    for (const std::size_t n : {std::size_t{1} << 12, std::size_t{1} << 15,
                                std::size_t{1} << 18}) {
      h.add("fgn_generation/" + std::to_string(n), {1, 5}, [n](bench::Case& c) {
        numerics::Rng rng(7);
        c.measure_seconds([&] { (void)traffic::generate_fgn(n, 0.85, rng); });
      });
    }

    return h.run();
  });
}
