// micro_serve — microbenchmarks for the serving tier.
//
// Three claims are gated here:
//   * serve/query_warm — a warm repeat query (parse, cell key, sharded
//     cache hit, correlation horizon, response serialization) costs
//     microseconds, not solver milliseconds: the daemon's steady-state
//     answer path never re-solves a cell it has already answered;
//   * serve/query_warm_trace — the same on the hit real traffic sends: a
//     2.2 KB line carrying the MTV trace's 48-rate marginal with %.17g,
//     the lines serve_mixed's hot set sends, where parsing the numbers
//     is most of the cost;
//   * cache/sharded_lookup — concurrent lookups against the sharded
//     memory tier scale with threads instead of serializing on one
//     global mutex; the record carries the measured speedup against a
//     single-mutex baseline map so `lrdq_bench_check` can flag a return
//     to global-lock behaviour, machine-independently.
//
// Results print to stdout and append to BENCH_history.jsonl
// (--history/--no-history to redirect/disable).
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/traces.hpp"
#include "harness.hpp"
#include "runtime/cache.hpp"
#include "serve/service.hpp"

namespace {

using namespace lrd;

constexpr const char* kUsage =
    "usage: micro_serve [--threads N] [--filter SUBSTR] [--list] [--repeats N]\n"
    "                   [--warmup N] [--history FILE] [--no-history]\n"
    "       --threads defaults to 4 (lookup scaling, not machine\n"
    "       saturation); LRDQ_THREADS overrides, 0 = hardware concurrency\n"
    "       micro_serve --help | --version";

/// Spreads loop indices the way real cell keys spread: FNV over the index.
std::uint64_t key_of(std::size_t i) {
  return runtime::Fnv1a().u64(i).digest();
}

/// The baseline the sharded tier replaced: one map, one global mutex.
class SingleMutexCache {
 public:
  void store(std::uint64_t key, double value) {
    std::lock_guard<std::mutex> lock(mu_);
    map_[key] = value;
  }
  double lookup(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    return it == map_.end() ? -1.0 : it->second;
  }

 private:
  std::mutex mu_;
  std::unordered_map<std::uint64_t, double> map_;
};

/// `threads` workers each perform `per_thread` lookups; returns wall
/// nanoseconds per lookup. The checksum keeps the loads from being
/// optimized away.
double timed_lookups(std::size_t threads, std::size_t per_thread, std::size_t keys,
                     const std::function<double(std::uint64_t)>& lookup) {
  std::vector<std::thread> pool;
  pool.reserve(threads);
  std::vector<double> sinks(threads, 0.0);
  const obs::SteadyTime t0 = obs::now();
  for (std::size_t w = 0; w < threads; ++w) {
    pool.emplace_back([&, w] {
      double sink = 0.0;
      // Per-worker stride so threads fan out over the key space instead
      // of marching through it in lockstep.
      for (std::size_t i = 0; i < per_thread; ++i)
        sink += lookup(key_of((i * (w + 1) + w) % keys));
      sinks[w] = sink;
    });
  }
  for (auto& th : pool) th.join();
  double total = 0.0;
  for (const double s : sinks) total += s;
  if (total < 0.0) std::fprintf(stderr, "micro_serve: unexpected miss\n");
  return obs::seconds_since(t0) * 1e9 / static_cast<double>(threads * per_thread);
}

/// One warm query line, timed: a cold execute warms the cache, then the
/// timed region is parse + key + sharded hit + horizon + serialize, never
/// a solve.
void time_warm_hits(bench::Case& c, const std::string& line) {
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  const serve::Response cold = service.execute_line(line);
  if (cold.status != serve::QueryStatus::kOk) {
    std::fprintf(stderr, "micro_serve: warmup solve failed: %s\n", cold.diagnostic.c_str());
    return;
  }
  std::size_t hits = 0;
  c.measure_ns_per_iter(512, [&](std::size_t) {
    const serve::Response r = service.execute_line(line);
    hits += r.cache_hit ? 1 : 0;
  });
  // Every timed iteration must be a cache hit, or the number above is
  // a solver benchmark in disguise; the gate watches this stay 1.
  const std::size_t total = (c.warmup() + c.repeats()) * 512;
  c.metric("hit_rate", total == 0 ? 0.0 : static_cast<double>(hits) / total);
}

std::string join17(const std::vector<double>& xs) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", xs[i]);
    if (i != 0) out += ',';
    out += buf;
  }
  return out;
}

/// A Fig. 4 cell as serve_mixed's hot set sends it (b 0.2, T_c 1, gap
/// 0.2, 4096 bins), every number with %.17g.
std::string mtv_query_line() {
  const core::TraceModel m = core::mtv_model();
  char knobs[256];
  std::snprintf(knobs, sizeof knobs,
                "], \"hurst\": %.17g, \"mean_epoch\": %.17g, \"cutoff\": %.17g, "
                "\"utilization\": %.17g, \"buffer\": %.17g, \"gap\": %.17g, "
                "\"max_bins\": 4096}",
                m.hurst, m.mean_epoch, 1.0, m.utilization, 0.2, 0.2);
  return "{\"id\": \"warm-trace\", \"rates\": [" + join17(m.marginal.rates()) +
         "], \"probs\": [" + join17(m.marginal.probs()) + knobs;
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
    if (args.version()) return cli::print_version("micro_serve");
    std::size_t threads = 4;
    if (args.has("threads") || std::getenv("LRDQ_THREADS")) threads = cli::resolve_threads(args);
    if (threads == 0) threads = std::thread::hardware_concurrency();

    // The ISSUE-gated keys live under two bench prefixes; each harness
    // appends its own records to the shared history.
    bench::Harness serve_h("serve", args);
    bench::Harness cache_h("cache", args);

    // Steady-state daemon answer path: the same cell asked again.
    serve_h.add("query_warm", {1, 5}, [](bench::Case& c) {
      time_warm_hits(c, R"({"id": "warm", "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3],)"
                        R"( "cutoff": 5, "buffer": 0.2})");
    });
    serve_h.add("query_warm_trace", {1, 5}, [](bench::Case& c) {
      const std::string line = mtv_query_line();
      c.metric("line_bytes", static_cast<double>(line.size()));
      time_warm_hits(c, line);
    });

    // Concurrent warm lookups: sharded tier vs the single-global-mutex
    // baseline it replaced, same keys, same access pattern.
    cache_h.add("sharded_lookup", {1, 5}, [threads](bench::Case& c) {
      constexpr std::size_t kKeys = 4096;
      constexpr std::size_t kPerThread = 200000;
      runtime::SolverCache sharded;
      SingleMutexCache single;
      for (std::size_t i = 0; i < kKeys; ++i) {
        sharded.store(key_of(i), static_cast<double>(i));
        single.store(key_of(i), static_cast<double>(i));
      }
      c.set_unit("ns");
      const auto sharded_lookup = [&](std::uint64_t k) { return sharded.lookup(k).value_or(-1e9); };
      const auto single_lookup = [&](std::uint64_t k) { return single.lookup(k); };
      for (std::size_t i = 0; i < c.warmup(); ++i)
        (void)timed_lookups(threads, kPerThread, kKeys, sharded_lookup);
      std::vector<double> baseline;
      for (std::size_t i = 0; i < c.repeats(); ++i) {
        c.add_sample(timed_lookups(threads, kPerThread, kKeys, sharded_lookup));
        baseline.push_back(timed_lookups(threads, kPerThread, kKeys, single_lookup));
      }
      const obs::RobustStats sharded_stats = obs::robust_stats(c.samples());
      const obs::RobustStats single_stats = obs::robust_stats(baseline);
      c.metric("threads", static_cast<double>(threads));
      c.metric("single_mutex_ns", single_stats.median);
      // Lower-is-better ratio the regression gate watches: sharded cost
      // over single-mutex cost on the same machine, so the comparison is
      // hardware-independent (a return to global-lock scaling shows up
      // here even when absolute wall times moved).
      if (single_stats.median > 0.0)
        c.metric("slowdown_vs_single_mutex", sharded_stats.median / single_stats.median);
    });

    const int serve_rc = serve_h.run();
    const int cache_rc = cache_h.run();
    return serve_rc != 0 ? serve_rc : cache_rc;
  });
}
