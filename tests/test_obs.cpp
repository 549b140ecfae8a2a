// Tests of the lrd::obs layer: counter totals under threads, log-linear
// histogram quantile recovery and merge associativity across shards,
// span nesting/ordering and ring overflow in the exported Chrome trace,
// the obs::Ring primitive under a racing reader, registry export
// formats, and solver convergence telemetry on a real solve.
//
// The Obs* suites also run under the ThreadSanitizer CI job (see
// .github/workflows/ci.yml) to pin down the lock-free recording paths.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/simple_epochs.hpp"
#include "obs/clock.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "obs/version.hpp"
#include "queueing/solver.hpp"

namespace {

using namespace lrd;

/// Extracts (ts, dur) of the first complete event named `name` from a
/// Chrome trace-event JSON string (events serialize name before ts/dur).
struct CompleteEvent {
  double ts = 0.0;
  double dur = 0.0;
};
std::optional<CompleteEvent> find_complete(const std::string& json, const std::string& name) {
  const std::string needle = "\"name\":\"" + name + "\"";
  const std::size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  const std::size_t ts_pos = json.find("\"ts\":", pos);
  const std::size_t dur_pos = json.find("\"dur\":", pos);
  if (ts_pos == std::string::npos || dur_pos == std::string::npos) return std::nullopt;
  CompleteEvent ev;
  if (std::sscanf(json.c_str() + ts_pos, "\"ts\":%lf", &ev.ts) != 1) return std::nullopt;
  if (std::sscanf(json.c_str() + dur_pos, "\"dur\":%lf", &ev.dur) != 1) return std::nullopt;
  return ev;
}

/// Every recording test is meaningless in a -DLRD_DISABLE_OBS build.
#define SKIP_IF_OBS_DISABLED()                                      \
  if constexpr (!obs::kObsEnabled) {                                \
    GTEST_SKIP() << "obs compiled out (LRD_DISABLE_OBS)";           \
  }

TEST(ObsCounter, SingleThreadTotal) {
  obs::Counter c;
  for (int i = 0; i < 1000; ++i) c.inc();
  c.inc(42);
  if constexpr (obs::kObsEnabled) {
    EXPECT_EQ(c.value(), 1042u);
  } else {
    EXPECT_EQ(c.value(), 0u);
  }
}

TEST(ObsCounter, ShardedIncrementsSumExactly) {
  SKIP_IF_OBS_DISABLED();
  obs::Counter c;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w)
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAndAdd) {
  SKIP_IF_OBS_DISABLED();
  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.25);
}

TEST(ObsHistogram, BucketEdgesRoundTrip) {
  // bucket_index must be the inverse of the edge functions: every value
  // lands in a bucket whose [lower, upper) range contains it.
  for (double v : {1e-9, 0.001, 0.5, 1.0, 1.5, 3.0, 1e6}) {
    const std::size_t i = obs::Histogram::bucket_index(v);
    EXPECT_GE(v, obs::Histogram::bucket_lower(i)) << "v = " << v;
    EXPECT_LT(v, obs::Histogram::bucket_upper(i)) << "v = " << v;
  }
  // Zero and negative go to underflow, huge values to overflow.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(-3.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1e300), obs::Histogram::kBuckets - 1);
}

TEST(ObsHistogram, QuantileRecovery) {
  SKIP_IF_OBS_DISABLED();
  // Uniform grid on [1, 1000]: the q-quantile is ~ 1 + 999 q; the
  // log-linear buckets bound the relative error by 2^(1/8) - 1 ~ 9%.
  obs::Histogram h;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i)
    h.observe(1.0 + 999.0 * static_cast<double>(i) / (kN - 1));
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kN));
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    const double expected = 1.0 + 999.0 * q;
    EXPECT_NEAR(h.quantile(q), expected, 0.10 * expected) << "q = " << q;
  }
  // Sum is exact (modulo fp addition order), not bucketed.
  EXPECT_NEAR(h.sum(), kN * (1.0 + 1000.0) / 2.0, 1e-3 * kN);
}

TEST(ObsHistogram, EmptyQuantileIsNaN) {
  obs::Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
}

TEST(ObsHistogram, ConcurrentObserveKeepsEverySample) {
  SKIP_IF_OBS_DISABLED();
  obs::Histogram h;
  constexpr std::size_t kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w)
    pool.emplace_back([&, w] {
      for (int i = 0; i < kPerThread; ++i)
        h.observe(0.5 + static_cast<double>(w));
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(h.count(), kThreads * static_cast<std::uint64_t>(kPerThread));
}

TEST(ObsRegistry, StableAddressesAndExports) {
  SKIP_IF_OBS_DISABLED();
  obs::Registry reg;
  obs::Counter& c1 = reg.counter("test_requests_total", "requests served");
  obs::Counter& c2 = reg.counter("test_requests_total", "ignored duplicate help");
  EXPECT_EQ(&c1, &c2);  // find-or-create hands out one stable address
  c1.inc(7);
  reg.gauge("test_workers", "live workers").set(3.0);
  reg.histogram("test_latency_seconds", "latency").observe(0.25);
  EXPECT_EQ(reg.size(), 3u);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE test_requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("test_requests_total 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_workers gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE test_latency_seconds histogram"), std::string::npos);
  EXPECT_NE(prom.find("test_latency_seconds_count 1"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\"} 1"), std::string::npos);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"test_requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"test_workers\""), std::string::npos);
  EXPECT_NE(json.find("\"test_latency_seconds\""), std::string::npos);
}

TEST(ObsTrace, SpanNestingAndOrdering) {
  SKIP_IF_OBS_DISABLED();
  obs::TraceSession::enable();
  obs::TraceSession::reset();
  {
    obs::Span outer("obs_test.outer", "test");
    obs::Span inner("obs_test.inner", "test");
    inner.annotate("k", 1, "neg", -7);
    (void)outer;
  }
  obs::instant("obs_test.mark", "test");
  obs::TraceSession::disable();

  EXPECT_GE(obs::TraceSession::recorded(), 3u);
  const std::string json = obs::TraceSession::to_json();
  obs::TraceSession::reset();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // the instant
  const auto outer = find_complete(json, "obs_test.outer");
  const auto inner = find_complete(json, "obs_test.inner");
  ASSERT_TRUE(outer.has_value());
  ASSERT_TRUE(inner.has_value());
  // The inner span starts no earlier and is fully contained in the outer.
  EXPECT_GE(inner->ts, outer->ts);
  EXPECT_LE(inner->ts + inner->dur, outer->ts + outer->dur + 1e-3);
  EXPECT_NE(json.find("\"k\": 1, \"neg\": -7"), std::string::npos);  // annotation survived
  EXPECT_TRUE(static_cast<bool>(obs::json::parse(json))) << json;
}

TEST(ObsTrace, RingBufferDropsOldestNotNewest) {
  SKIP_IF_OBS_DISABLED();
  constexpr std::int64_t kCapacity = 1 << 15;  // per-thread ring size
  constexpr std::int64_t kOverflow = 100;
  obs::TraceSession::enable();
  obs::TraceSession::reset();
  for (std::int64_t i = 0; i < kCapacity + kOverflow; ++i)
    obs::instant("obs_test.flood", "test", "i", i);
  obs::TraceSession::disable();
  EXPECT_EQ(obs::TraceSession::dropped(), static_cast<std::uint64_t>(kOverflow));
  EXPECT_EQ(obs::TraceSession::recorded(), static_cast<std::size_t>(kCapacity));
  auto doc = obs::json::parse(obs::TraceSession::to_json());
  obs::TraceSession::reset();
  ASSERT_TRUE(static_cast<bool>(doc));
  EXPECT_EQ(doc.value().number_at("droppedEvents"), static_cast<double>(kOverflow));
  // Exactly the newest kCapacity events survive, in append order.
  std::int64_t expected = kOverflow;
  for (const obs::json::Value& e : doc.value().find("traceEvents")->items()) {
    if (e.string_at("name") != "obs_test.flood") continue;
    ASSERT_EQ(static_cast<std::int64_t>(e.find("args")->number_at("i")), expected);
    ++expected;
  }
  EXPECT_EQ(expected, kCapacity + kOverflow);
}

TEST(ObsTrace, ConcurrentSpansRecordOnAllThreads) {
  SKIP_IF_OBS_DISABLED();
  obs::TraceSession::enable();
  obs::TraceSession::reset();
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kThreads; ++w)
    pool.emplace_back([] {
      obs::set_thread_name("obs-test-thread");
      for (int i = 0; i < 100; ++i) {
        obs::Span span("obs_test.worker", "test");
        (void)span;
      }
    });
  for (auto& th : pool) th.join();
  obs::TraceSession::disable();
  EXPECT_GE(obs::TraceSession::recorded(), kThreads * 100u);
  EXPECT_NE(obs::TraceSession::to_json().find("\"obs-test-thread\""), std::string::npos);
  obs::TraceSession::reset();
}

/// A ring element of N words, each word carrying the element's append
/// index, so a torn read shows up as disagreeing words.
template <std::size_t N>
struct Stamped {
  std::uint64_t w[N];
  explicit Stamped(std::uint64_t v = 0) {
    for (auto& x : w) x = v;
  }
  bool intact(std::uint64_t v) const {
    for (auto x : w)
      if (x != v) return false;
    return true;
  }
};

template <typename T>
class ObsRing : public ::testing::Test {};
// The flight recorder's 64-byte event and the profiler's 152-byte sample.
using RingElements = ::testing::Types<Stamped<8>, Stamped<19>>;
TYPED_TEST_SUITE(ObsRing, RingElements);

TYPED_TEST(ObsRing, WraparoundKeepsTheNewestCapElementsInOrder) {
  constexpr std::size_t kCap = 8;
  auto ring = std::make_unique<obs::Ring<TypeParam, kCap>>();
  for (std::uint64_t i = 0; i < 20; ++i) ring->push(TypeParam(i));
  EXPECT_EQ(ring->appended(), 20u);

  TypeParam out[kCap + 4];
  std::uint64_t first = 0;
  ASSERT_EQ(ring->read_tail(out, kCap + 4, &first), kCap);
  EXPECT_EQ(first, 12u);
  for (std::size_t k = 0; k < kCap; ++k) EXPECT_TRUE(out[k].intact(12 + k)) << k;

  ASSERT_EQ(ring->read_tail(out, 3, &first), 3u);  // a shorter tail: the newest 3
  EXPECT_EQ(first, 17u);
  EXPECT_TRUE(out[0].intact(17));

  ring->clear();
  EXPECT_EQ(ring->read_tail(out, kCap, &first), 0u);
}

TYPED_TEST(ObsRing, ReaderRacingALappingWriterNeverSeesATornElement) {
  constexpr std::size_t kCap = 8;  // small, so the writer laps the reader constantly
  constexpr std::uint64_t kPushes = 1000000;
  auto ring = std::make_unique<obs::Ring<TypeParam, kCap>>();
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kPushes; ++i) ring->push(TypeParam(i));
    done.store(true, std::memory_order_release);
  });
  TypeParam out[kCap];
  std::uint64_t checked = 0, torn = 0;
  for (bool last = false; !last;) {
    last = done.load(std::memory_order_acquire);
    std::uint64_t first = 0;
    const std::size_t n = ring->read_tail(out, kCap, &first);
    for (std::size_t k = 0; k < n; ++k) torn += out[k].intact(first + k) ? 0 : 1;
    checked += n;
  }
  writer.join();
  EXPECT_EQ(torn, 0u) << "of " << checked << " elements read";
  EXPECT_GE(checked, kCap);  // the final read sees a full, quiescent ring
}
TEST(ObsTelemetry, RealSolveProducesMonotoneAudit) {
  SKIP_IF_OBS_DISABLED();
  // A lossy three-rate solve that needs at least one refinement level.
  dist::Marginal m({1.0, 2.5, 4.0}, {0.4, 0.2, 0.4});
  auto d = std::make_shared<const dist::ExponentialEpoch>(2.0);
  queueing::FluidQueueSolver s(m, d, 2.5, 1.0);
  queueing::SolverConfig cfg;
  cfg.target_relative_gap = 0.05;
  cfg.collect_telemetry = true;
  const auto r = s.solve(cfg);
  ASSERT_TRUE(r.converged);
  ASSERT_FALSE(r.telemetry.empty());

  std::size_t iterations = 0;
  std::size_t prev_bins = 0;
  for (const auto& level : r.telemetry.levels) {
    EXPECT_GT(level.bins, prev_bins);  // bins double per refinement
    prev_bins = level.bins;
    iterations += level.iterations;
    EXPECT_GE(level.bracket_width(), 0.0);  // Prop. II.1: a true bracket
    EXPECT_GE(level.occupancy_gap, 0.0);
    EXPECT_GE(level.wall_seconds, 0.0);
  }
  // Every iteration is accounted to exactly one level.
  EXPECT_EQ(iterations, r.iterations);
  // The level the solver stopped in matches the result.
  EXPECT_EQ(r.telemetry.levels.back().bins, r.final_bins);
  // Refinement tightens the audit: the final bracket is no wider than
  // the first level's.
  EXPECT_LE(r.telemetry.levels.back().bracket_width(),
            r.telemetry.levels.front().bracket_width() + 1e-12);
  EXPECT_GT(r.telemetry.total_seconds, 0.0);

  const std::string json = r.telemetry.to_json();
  EXPECT_NE(json.find("\"levels\""), std::string::npos);
  EXPECT_NE(json.find("\"bracket_lower\""), std::string::npos);
  EXPECT_NE(json.find("\"total_seconds\""), std::string::npos);
}

TEST(ObsTelemetry, OffByDefault) {
  dist::Marginal m = dist::Marginal::constant(4.0);
  auto d = std::make_shared<const dist::ExponentialEpoch>(1.0);
  queueing::FluidQueueSolver s(m, d, 3.0, 2.0);
  const auto r = s.solve();
  EXPECT_TRUE(r.telemetry.empty());
  EXPECT_NE(r.telemetry.to_json().find("\"levels\": []"), std::string::npos);
}

TEST(ObsVersion, StringNamesToolAndCacheSalt) {
  const std::string v = obs::version_string("lrdq_test");
  EXPECT_NE(v.find("lrdq_test"), std::string::npos);
  EXPECT_NE(v.find("lrd-solver-cache"), std::string::npos);  // cache version salt
}

TEST(ObsClock, MonotoneHelpers) {
  const obs::SteadyTime t0 = obs::now();
  EXPECT_GE(obs::seconds_since(t0), 0.0);
  EXPECT_GE(obs::seconds_between(t0, obs::now()), 0.0);
  const double u0 = obs::process_uptime_us();
  EXPECT_GE(obs::process_uptime_us(), u0);
}

}  // namespace
