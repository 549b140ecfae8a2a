#include "layers.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <optional>

#include "core/experiment.hpp"
#include "dist/epoch.hpp"
#include "numerics/grid.hpp"
#include "obs/trace.hpp"
#include "runtime/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace lrd::perfbench {

Cell make_cell(const dist::Marginal& marginal, double hurst, double mean_epoch,
               double utilization, double buffer, double cutoff, double gap,
               std::size_t max_bins) {
  Cell c{dist::Marginal(marginal.rates(), marginal.probs()), {}, {}};
  c.model.hurst = hurst;
  c.model.mean_epoch = mean_epoch;
  c.model.utilization = utilization;
  c.model.normalized_buffer = buffer;
  c.model.cutoff = cutoff;
  c.solver.target_relative_gap = gap;
  c.solver.max_bins = max_bins;
  return c;
}

namespace {

std::string cutoff_text(double cutoff) { return std::isinf(cutoff) ? "inf" : num17(cutoff); }

}  // namespace

std::string query_line(const Cell& cell, const std::string& id) {
  std::string q = "{\"id\": \"" + id + "\", \"rates\": [" + join_num17(cell.marginal.rates(), ',');
  q += "], \"probs\": [" + join_num17(cell.marginal.probs(), ',');
  q += "], \"hurst\": " + num17(cell.model.hurst);
  q += ", \"mean_epoch\": " + num17(cell.model.mean_epoch);
  q += ", \"cutoff\": ";
  q += std::isinf(cell.model.cutoff) ? "\"inf\"" : num17(cell.model.cutoff);
  q += ", \"utilization\": " + num17(cell.model.utilization);
  q += ", \"buffer\": " + num17(cell.model.normalized_buffer);
  q += ", \"gap\": " + num17(cell.solver.target_relative_gap);
  q += ", \"max_bins\": " + std::to_string(cell.solver.max_bins) + "}";
  return q;
}

std::vector<std::string> solve_argv(const Options& opt, const Cell& cell) {
  return {opt.tools_dir + "/lrdq_solve",
          "--rates", join_num17(cell.marginal.rates(), ','),
          "--probs", join_num17(cell.marginal.probs(), ','),
          "--hurst", num17(cell.model.hurst),
          "--mean-epoch", num17(cell.model.mean_epoch),
          "--cutoff", cutoff_text(cell.model.cutoff),
          "--utilization", num17(cell.model.utilization),
          "--buffer", num17(cell.model.normalized_buffer),
          "--gap", num17(cell.solver.target_relative_gap),
          "--max-bins", std::to_string(cell.solver.max_bins)};
}

bool parse_solve_output(const std::string& out, std::string& loss_text, std::size_t& bins,
                        bool& converged) {
  const auto at = out.find("loss rate: ");
  const auto m = out.find("solver: M = ");
  if (at == std::string::npos || m == std::string::npos) return false;
  const auto start = at + std::strlen("loss rate: ");
  loss_text = out.substr(start, out.find(' ', start) - start);
  bins = std::strtoull(out.c_str() + m + std::strlen("solver: M = "), nullptr, 10);
  const auto eol = out.find('\n', m);
  converged = out.substr(m, eol - m).find("NOT converged") == std::string::npos;
  return true;
}

namespace {

std::vector<double> dirac(std::size_t points, std::size_t index) {
  std::vector<double> q(points, 0.0);
  q[index] = 1.0;
  return q;
}

std::string loss_6e(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6e", v);
  return buf;
}

/// Process CPU seconds, all threads: the replay's clock. Steal time on
/// a shared host does not enter it, and the pooled fold's two chains
/// both count.
double cpu_now() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Counting decorator over an epoch distribution: forwards every call
/// and counts ccdf_open / ccdf_closed evaluations.
class CountingEpochs final : public dist::EpochDistribution {
 public:
  explicit CountingEpochs(dist::EpochPtr inner) : inner_(std::move(inner)) {}

  double mean() const override { return inner_->mean(); }
  double variance() const override { return inner_->variance(); }
  double ccdf_open(double t) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->ccdf_open(t);
  }
  double ccdf_closed(double t) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    return inner_->ccdf_closed(t);
  }
  double excess_mean(double u) const override { return inner_->excess_mean(u); }
  double max_support() const override { return inner_->max_support(); }
  double sample(numerics::Rng& rng) const override { return inner_->sample(rng); }

  std::uint64_t ccdf_calls() const noexcept { return calls_.load(std::memory_order_relaxed); }

 private:
  dist::EpochPtr inner_;
  mutable std::atomic<std::uint64_t> calls_{0};
};

/// In-process reference for one cell: median wall of three plain solves.
/// (The queueing.* metrics use the same solves' process CPU time.)
struct CellSolve {
  bool converged = false;
  double wall_seconds = 0.0;
  double estimate = 0.0;
};

/// Sink for values computed only to be timed.
volatile double g_sink = 0.0;

/// Whether measure_layers runs under a trace session.
bool g_traced = false;

/// Span around one probe phase. The session is switched on only while
/// the span opens and closes, so the library's own hooks inside the
/// timed calls (cache instants, executor task spans) stay off and each
/// layer is timed at its untraced cost.
class LayerSpan {
 public:
  explicit LayerSpan(const char* name) {
    with_session([&] { span_.emplace(name, "perfbench"); });
  }
  ~LayerSpan() {
    with_session([&] { span_.reset(); });
  }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  template <typename F>
  static void with_session(F&& f) {
    if (g_traced) obs::TraceSession::enable();
    f();
    if (g_traced) obs::TraceSession::disable();
  }
  std::optional<obs::Span> span_;
};

/// queueing.* metrics over `cells`; also checks that repeated solves of a
/// cell agree bit for bit. Returns the reference solve of each cell.
std::vector<CellSolve> replay_queueing(const std::vector<Cell>& cells, Outcome& out) {
  std::vector<CellSolve> solves;
  double cpu_total = 0.0, incr = 0.0, overflow = 0.0, init = 0.0;
  double fold_packed = 0.0, fold_split = 0.0;
  std::uint64_t steps_packed = 0, steps_split = 0, ccdf_calls = 0, pmf_points = 0;
  std::uint64_t levels = 0, iterations = 0, final_bins = 0;

  for (const Cell& cell : cells) {
    const core::FluidModel model(cell.marginal, cell.model);
    // Untraced reference: median wall and CPU of three plain solves, all
    // of which must agree bit for bit.
    CellSolve s;
    std::vector<double> walls, cpus;
    queueing::SolverResult plain;
    for (int rep = 0; rep < 3; ++rep) {
      const double c0 = cpu_now();
      const Clock::time_point t0 = Clock::now();
      queueing::SolverResult r = model.solve(cell.solver);
      walls.push_back(seconds_since(t0));
      cpus.push_back(cpu_now() - c0);
      if (rep > 0 && std::memcmp(&r.loss, &plain.loss, sizeof r.loss) != 0)
        out.problems.push_back("repeated in-process solves disagree");
      plain = std::move(r);
    }
    s.wall_seconds = median(walls);
    s.converged = plain.converged;
    s.estimate = plain.loss_estimate();
    cpu_total += median(cpus);

    queueing::SolverConfig traced = cell.solver;
    traced.collect_telemetry = true;
    const queueing::SolverResult tel = model.solve(traced);
    if (std::memcmp(&tel.loss, &plain.loss, sizeof tel.loss) != 0)
      out.problems.push_back("telemetry solve disagrees with the plain solve");
    levels += tel.levels;
    iterations += tel.iterations;
    final_bins += tel.final_bins;

    const queueing::FluidQueueSolver solver = model.solver();
    const auto counting = std::make_shared<CountingEpochs>(model.epochs());
    const queueing::FluidQueueSolver counted(model.marginal(), counting, model.service_rate(),
                                             model.buffer());
    for (const obs::LevelTelemetry& level : tel.telemetry.levels) {
      const std::size_t bins = level.bins;
      std::vector<double> lower, upper;
      {
        LayerSpan span("queueing.increment_pmf");
        const double t0 = cpu_now();
        lower = solver.increment_pmf_lower(bins);
        upper = solver.increment_pmf_upper(bins);
        incr += cpu_now() - t0;
      }
      {
        LayerSpan span("queueing.overflow_kernel");
        const double t0 = cpu_now();
        const numerics::Grid grid(model.buffer(), bins);
        double acc = 0.0;
        for (std::size_t j = 0; j <= bins; ++j) acc += solver.overflow_kernel(grid.value(j));
        g_sink = acc;
        overflow += cpu_now() - t0;
      }
      std::optional<queueing::DualFoldEngine> engine;
      {
        LayerSpan span("queueing.engine_init");
        const double t0 = cpu_now();
        engine.emplace(std::move(lower), std::move(upper), bins);
        init += cpu_now() - t0;
      }
      {
        LayerSpan span("queueing.fold");
        std::vector<double> q_low = dirac(bins + 1, 0), q_high = dirac(bins + 1, bins);
        queueing::StepHealth h_low, h_high;
        const double t0 = cpu_now();
        for (std::size_t n = 0; n < level.iterations; ++n) engine->step(q_low, q_high, h_low, h_high);
        const double dt = cpu_now() - t0;
        (engine->split_mode() ? fold_split : fold_packed) += dt;
        (engine->split_mode() ? steps_split : steps_packed) += level.iterations;
      }
      // Counting pass, untimed: the decorator's extra virtual hop must
      // not leak into the level-build time above.
      const std::uint64_t before = counting->ccdf_calls();
      g_sink = counted.increment_pmf_lower(bins)[0] + counted.increment_pmf_upper(bins)[0];
      ccdf_calls += counting->ccdf_calls() - before;
      std::uint64_t active_rates = 0;
      for (double r : model.marginal().rates()) active_rates += r != model.service_rate();
      pmf_points += 2 * (2 * bins + 1) * active_rates;
    }
    solves.push_back(s);
  }

  const double n = static_cast<double>(cells.size());
  const std::size_t nc = cells.size();
  const double replayed = incr + overflow + init + fold_packed + fold_split;
  const std::uint64_t steps = steps_packed + steps_split;
  out.add("queueing.solve_s", cpu_total / n, "s", nc, MetricKind::kInfo);
  out.add("queueing.incr_pmf_s", incr / n, "s", nc, MetricKind::kLayer);
  out.add("queueing.overflow_kernel_s", overflow / n, "s", nc, MetricKind::kLayer);
  out.add("queueing.engine_init_s", init / n, "s", nc, MetricKind::kLayer);
  out.add("queueing.epoch_ccdf_calls", static_cast<double>(ccdf_calls), "count", nc,
          MetricKind::kLayer);
  out.add("queueing.ccdf_calls_per_pmf_point",
          static_cast<double>(ccdf_calls) / static_cast<double>(pmf_points), "count", nc,
          MetricKind::kInfo);
  out.add("queueing.fold_steps", static_cast<double>(steps), "count", nc, MetricKind::kLayer);
  out.add("queueing.fold_step_us", (fold_packed + fold_split) * 1e6 / static_cast<double>(steps),
          "us", steps, MetricKind::kLayer);
  if (steps_packed > 0)
    out.add("queueing.fold_packed_us", fold_packed * 1e6 / static_cast<double>(steps_packed), "us",
            steps_packed, MetricKind::kInfo);
  if (steps_split > 0)
    out.add("queueing.fold_split_us", fold_split * 1e6 / static_cast<double>(steps_split), "us",
            steps_split, MetricKind::kInfo);
  out.add("queueing.residual_share", (cpu_total - replayed) / cpu_total, "ratio", nc,
          MetricKind::kLayer);
  out.add("queueing.levels", static_cast<double>(levels), "count", nc, MetricKind::kLayer);
  out.add("queueing.iterations", static_cast<double>(iterations), "count", nc, MetricKind::kLayer);
  out.add("queueing.final_bins", static_cast<double>(final_bins), "count", nc, MetricKind::kLayer);
  return solves;
}

/// runtime.cache_lookup_ns / runtime.cache_store_us on the cells' keys.
void probe_cache(const std::vector<Cell>& cells, Outcome& out) {
  std::vector<std::uint64_t> keys;
  for (const Cell& c : cells) keys.push_back(core::model_cell_key(c.marginal, c.model, c.solver));

  const std::size_t store_reps = std::max<std::size_t>(1, 20000 / keys.size());
  double store_s = 0.0;
  {
    LayerSpan span("runtime.cache_store");
    for (std::size_t rep = 0; rep < store_reps; ++rep) {
      runtime::SolverCache cache;
      const double t0 = cpu_now();
      for (std::uint64_t k : keys) cache.store(k, 1.0);
      store_s += cpu_now() - t0;
    }
  }
  runtime::SolverCache warm;
  for (std::uint64_t k : keys) warm.store(k, 1.0);
  const std::size_t lookups = 1'000'000;
  double lookup_s = 0.0;
  {
    LayerSpan span("runtime.cache_lookup");
    double acc = 0.0;
    const double t0 = cpu_now();
    for (std::size_t i = 0; i < lookups; ++i) acc += warm.lookup(keys[i % keys.size()]).value_or(0.0);
    lookup_s = cpu_now() - t0;
    g_sink = acc;
  }
  const std::size_t stores = store_reps * keys.size();
  out.add("runtime.cache_store_us", store_s * 1e6 / static_cast<double>(stores), "us", stores,
          MetricKind::kLayer);
  out.add("runtime.cache_lookup_ns", lookup_s * 1e9 / static_cast<double>(lookups), "ns", lookups,
          MetricKind::kLayer);
}

/// serve.parse_us / encode_us / execute_hit_us / execute_miss_ms on the
/// cells' query lines, in process.
void probe_service(const std::vector<Cell>& cells, Outcome& out) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < cells.size(); ++i) lines.push_back(query_line(cells[i], std::to_string(i)));
  const std::size_t reps = std::max<std::size_t>(1, 20000 / lines.size());
  const std::size_t calls = reps * lines.size();

  double parse_s = 0.0;
  {
    LayerSpan span("serve.parse_query");
    const double t0 = cpu_now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (const auto& l : lines)
        if (!serve::parse_query(l)) out.problems.push_back("parse_query rejected a workload query");
    parse_s = cpu_now() - t0;
  }

  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  std::vector<serve::Response> misses;
  double miss_s = 0.0;
  for (const auto& l : lines) {
    LayerSpan span("serve.execute_miss");
    const double t0 = cpu_now();
    misses.push_back(service.execute_line(l));
    miss_s += cpu_now() - t0;
    if (misses.back().code() != 0 || misses.back().cache_hit)
      out.problems.push_back("in-process miss query " + misses.back().id + " answered code " +
                             std::to_string(misses.back().code()));
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const serve::Response r = service.execute_line(lines[i]);
    if (!r.cache_hit || num17(r.loss_estimate) != num17(misses[i].loss_estimate))
      out.problems.push_back("in-process hit " + r.id + " differs from the miss that filled it");
  }
  double hit_s = 0.0;
  {
    LayerSpan span("serve.execute_hit");
    const double t0 = cpu_now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (const auto& l : lines) g_sink = service.execute_line(l).loss_estimate;
    hit_s = cpu_now() - t0;
  }

  double encode_s = 0.0;
  {
    LayerSpan span("serve.encode");
    std::size_t bytes = 0;
    const double t0 = cpu_now();
    for (std::size_t rep = 0; rep < reps; ++rep)
      for (const auto& r : misses) bytes += r.to_json().size();
    encode_s = cpu_now() - t0;
    g_sink = static_cast<double>(bytes);
  }

  out.add("serve.parse_us", parse_s * 1e6 / static_cast<double>(calls), "us", calls,
          MetricKind::kLayer);
  out.add("serve.encode_us", encode_s * 1e6 / static_cast<double>(calls), "us", calls,
          MetricKind::kLayer);
  out.add("serve.execute_hit_us", hit_s * 1e6 / static_cast<double>(calls), "us", calls,
          MetricKind::kLayer);
  out.add("serve.execute_miss_ms", miss_s * 1e3 / static_cast<double>(lines.size()), "ms",
          lines.size(), MetricKind::kLayer);
}

/// tools.process_overhead_ms: lrdq_solve wall (median of `repeats`)
/// minus the in-process reference wall, mean over the converged cells.
/// Each process must agree with the reference to the printed precision.
void probe_process(const Options& opt, const std::vector<Cell>& cells,
                   const std::vector<CellSolve>& solves, std::size_t repeats, Outcome& out) {
  double overhead_ms = 0.0;
  std::size_t measured = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!solves[i].converged) continue;
    std::vector<double> walls;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      LayerSpan span("tools.lrdq_solve");
      const ChildExit e = run_child(solve_argv(opt, cells[i]));
      walls.push_back(e.wall_seconds);
      std::string loss;
      std::size_t bins = 0;
      bool converged = false;
      if (e.code != 0 || !parse_solve_output(e.out, loss, bins, converged) || !converged ||
          loss != loss_6e(solves[i].estimate))
        out.problems.push_back("lrdq_solve disagrees with the in-process solve (exit " +
                               std::to_string(e.code) + ", loss " + loss + " vs " +
                               loss_6e(solves[i].estimate) + ")");
    }
    overhead_ms += (median(walls) - solves[i].wall_seconds) * 1e3;
    ++measured;
  }
  if (measured == 0) {
    out.problems.push_back("no converged cell to time lrdq_solve on");
    return;
  }
  out.add("tools.process_overhead_ms", overhead_ms / static_cast<double>(measured), "ms", measured,
          MetricKind::kLayer);
}

}  // namespace

void measure_layers(const Options& opt, const std::vector<Cell>& cells, std::size_t process_repeats,
                    Outcome& out) {
  g_traced = obs::TraceSession::enabled();
  if (g_traced) obs::TraceSession::disable();
  const std::vector<CellSolve> solves = replay_queueing(cells, out);
  std::vector<Cell> converged;
  for (std::size_t i = 0; i < cells.size(); ++i)
    if (solves[i].converged) converged.push_back(cells[i]);
  probe_cache(cells, out);
  probe_service(converged, out);
  probe_process(opt, cells, solves, process_repeats, out);
  if (g_traced) obs::TraceSession::enable();
}

}  // namespace lrd::perfbench
