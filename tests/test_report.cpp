// Tests of the artifact-analysis side of the observability layer: the
// minimal JSON parser, robust statistics and the overhead clamp, the
// bench-history parser, the noise-aware regression detector (golden
// fixtures: an injected 3x slowdown must flag, within-jitter wobble must
// stay quiet, a telemetry iteration-count regression must flag), the
// trace profiler's self-time/nesting accounting, the manifest and
// metrics diffs, the CPU-profile self-time table, and rows that render
// whole however long their fields.
//
// Suites are named Obs* so they also run under the ThreadSanitizer CI
// job alongside the recording-path tests.
#include <gtest/gtest.h>

#include <cerrno>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/doctor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/regress.hpp"

namespace {

using namespace lrd;

obs::json::Value parse_ok(const std::string& text) {
  auto v = obs::json::parse(text);
  EXPECT_TRUE(v.has_value()) << v.status().describe();
  return std::move(v).take();
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void write_file(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  ASSERT_NE(out, nullptr) << path;
  std::fputs(content.c_str(), out);
  std::fclose(out);
}

/// One synthetic lrd-bench-v1 history line; values straddle the median
/// by +-mad so the record is self-consistent.
std::string history_line(const std::string& key, double median, double mad,
                         const std::vector<std::pair<std::string, double>>& metrics = {},
                         const std::string& unit = "seconds") {
  std::string metric_text = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) metric_text += ",";
    metric_text += "\"" + metrics[i].first + "\":" + obs::json::number_text(metrics[i].second);
  }
  metric_text += "}";
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"schema\":\"lrd-bench-v1\",\"bench\":\"fixture\",\"key\":\"%s\",\"unit\":\"%s\","
      "\"warmup\":1,\"repeats\":3,\"median\":%.9g,\"mad\":%.9g,\"min\":%.9g,\"mean\":%.9g,"
      "\"values\":[%.9g,%.9g,%.9g],\"metrics\":%s,"
      "\"env\":{\"git_describe\":\"test\",\"build_type\":\"Release\",\"compiler\":\"test\","
      "\"cpu_count\":4,\"obs_enabled\":true},\"timestamp_unix\":100}",
      key.c_str(), unit.c_str(), median, mad, median - mad, median, median - mad, median,
      median + mad, metric_text.c_str());
  return buf;
}

// --- JSON parser -----------------------------------------------------------

TEST(ObsJsonParser, ParsesNestedDocument) {
  const obs::json::Value v =
      parse_ok(R"({"a":[1,2.5,-3e2],"b":"x\nA","c":null,"d":true,"e":{"f":false}})");
  ASSERT_TRUE(v.is_object());
  const obs::json::Value* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->items()[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->items()[2].as_number(), -300.0);
  EXPECT_EQ(v.string_at("b"), "x\nA");
  EXPECT_NE(v.find("c"), nullptr);
  EXPECT_EQ(v.find_non_null("c"), nullptr);
  EXPECT_TRUE(v.find("d")->as_bool(false));
  EXPECT_FALSE(v.find("e")->find("f")->as_bool(true));
}

TEST(ObsJsonParser, RejectsMalformedInput) {
  for (const char* bad : {"{", "[1,", "\"unterminated", "nul", "{\"a\":1,}", "1 2",
                          "{\"a\" 1}", "1e999"}) {
    auto v = obs::json::parse(bad);
    EXPECT_FALSE(v.has_value()) << bad;
    EXPECT_EQ(v.diagnostics().category, ErrorCategory::kParse) << bad;
  }
}

TEST(ObsJsonParser, MissingFileIsIoError) {
  auto v = obs::json::parse_file(temp_path("does_not_exist.json"));
  ASSERT_FALSE(v.has_value());
  EXPECT_EQ(v.diagnostics().category, ErrorCategory::kIo);
}

TEST(ObsJsonParser, EscapeRoundTripsThroughParse) {
  const std::string original = "tab\t\"quote\"\nnewline\\slash";
  const obs::json::Value v = parse_ok(obs::json::escape(original));
  EXPECT_EQ(v.as_string(), original);
}

// --- JSON number grammar ---------------------------------------------------

/// A number token as json::parse reads it; `ok` is false on a rejection.
struct Read {
  bool ok = false;
  double value = 0.0;
};

Read json_read(const std::string& token) {
  const auto v = obs::json::parse(token);
  if (!v || !v.value().is_number()) return {};
  return {true, v.value().as_number()};
}

/// The reader's number path before it converted tokens in place: a copy
/// of the token into a std::string, then strtod, rejecting a partial
/// parse, ERANGE and non-finite values. `erange` reports glibc's flag,
/// which it also sets for a subnormal result.
struct StrtodRead {
  bool ok = false;
  bool erange = false;
  double value = 0.0;
};

StrtodRead strtod_read(const std::string& token) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(token.c_str(), &end);
  StrtodRead r;
  r.erange = errno == ERANGE;
  r.value = v;
  r.ok = end == token.c_str() + token.size() && !r.erange && std::isfinite(v);
  return r;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string printed(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

TEST(ObsJsonParser, PrintedNumbersReadBackToTheSameBits) {
  std::vector<double> values = {0.0, -0.0, DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN, -DBL_MIN,
                                DBL_MAX, -DBL_MAX};
  std::mt19937_64 rng(0x6a50'4e0b'1d5e'0001ull);
  while (values.size() < 100000 + 8) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) values.push_back(v);
  }
  std::size_t subnormals = 0;
  for (const double v : values) {
    if (v != 0.0 && std::abs(v) < DBL_MIN) ++subnormals;
    // %.17g is exact: the original bits come back.
    const std::string exact = printed("%.17g", v);
    const Read a = json_read(exact);
    ASSERT_TRUE(a.ok) << exact;
    ASSERT_TRUE(same_bits(a.value, v)) << exact << " read " << printed("%.17g", a.value);
    // %.9g (json::number_text) is not; it reads back to the correctly
    // rounded value of its text, the one strtod returns.
    const std::string short_text = printed("%.9g", v);
    const Read b = json_read(short_text);
    ASSERT_TRUE(b.ok) << short_text;
    ASSERT_TRUE(same_bits(b.value, std::strtod(short_text.c_str(), nullptr))) << short_text;
  }
  EXPECT_GT(subnormals, 10u) << "random bit patterns reach the subnormal range";
}

TEST(ObsJsonParser, AgreesWithTheStrtodReaderOutsideTwoDocumentedClasses) {
  // Seed tokens: printed doubles across the range plus the boundaries.
  std::mt19937_64 rng(0x6a50'4e0b'1d5e'0002ull);
  const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<std::string> seeds = {"0",      "-0",    "1",       "17",     "0.5",
                                    "5e-324", "1e-310", "2.2250738585072012e-308",
                                    "1.7976931348623157e308", "1e-400", "1e400", "2e-324"};
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t bits = rng();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    seeds.push_back(printed("%.17g", v));
    seeds.push_back(printed("%.9g", v));
  }
  // Mutations draw from the characters the reader's token scan takes.
  const std::string alphabet = "0123456789.eE+-";
  std::size_t both = 0, plus = 0, subnormal = 0, neither = 0;
  for (int trial = 0; trial < 50000; ++trial) {
    std::string token = seeds[below(seeds.size())];
    for (std::size_t m = 1 + below(3); m > 0; --m) {
      const char ch = alphabet[below(alphabet.size())];
      switch (below(5)) {
        case 0: token.insert(below(token.size() + 1), 1, ch); break;
        case 1: if (!token.empty()) token.erase(below(token.size()), 1); break;
        case 2: if (!token.empty()) token[below(token.size())] = ch; break;
        case 3: token.insert(0, 1, below(2) == 0 ? '+' : '-'); break;
        default: token.resize(below(token.size() + 1)); break;
      }
    }
    if (token.empty()) continue;
    SCOPED_TRACE("token '" + token + "'");
    const StrtodRead old = strtod_read(token);
    const Read now = json_read(token);
    if (old.ok && now.ok) {
      ++both;
      ASSERT_TRUE(same_bits(old.value, now.value));
    } else if (old.ok) {
      // Class 1: a leading '+', which JSON forbids and strtod took.
      ASSERT_EQ(token.front(), '+');
      ++plus;
    } else if (now.ok) {
      // Class 2: a subnormal, which glibc flags ERANGE. The value is the
      // one strtod rounded to, nonzero and at most DBL_MIN in magnitude.
      ASSERT_TRUE(old.erange);
      ASSERT_TRUE(same_bits(old.value, now.value));
      ASSERT_NE(now.value, 0.0);
      ASSERT_LE(std::abs(now.value), DBL_MIN);
      ++subnormal;
    } else {
      ++neither;
    }
  }
  EXPECT_GT(both, 1000u);
  EXPECT_GT(plus, 100u);
  EXPECT_GT(subnormal, 10u);
  EXPECT_GT(neither, 1000u);
}

TEST(ObsJsonParser, NumberGrammarEdgeCases) {
  // Accepted, with the value each reads as.
  const std::pair<const char*, double> accepted[] = {
      {"-0", -0.0}, {"5e-324", DBL_TRUE_MIN}, {"01", 1.0}, {".5", 0.5}, {"1.", 1.0}};
  for (const auto& [text, value] : accepted) {
    const Read r = json_read(text);
    ASSERT_TRUE(r.ok) << text;
    EXPECT_TRUE(same_bits(r.value, value)) << text;
  }
  // Rejected: a leading '+', out of range either way, and tokens that
  // are not numbers at all.
  for (const char* text : {"+1", "1e-400", "1e400", "-", "1e", "1e+", "0x10"}) {
    const auto v = obs::json::parse(text);
    ASSERT_FALSE(v.has_value()) << text;
    EXPECT_EQ(v.diagnostics().category, ErrorCategory::kParse) << text;
  }
  // The same inside a document: the member's value, not the whole line.
  const obs::json::Value doc = parse_ok(R"({"a": [5e-324, -0, 01]})");
  EXPECT_EQ(doc.find("a")->items()[0].as_number(), DBL_TRUE_MIN);
  EXPECT_TRUE(std::signbit(doc.find("a")->items()[1].as_number()));
  EXPECT_FALSE(obs::json::parse(R"({"a": [+1]})").has_value());
}

// --- robust statistics and the overhead clamp ------------------------------

TEST(ObsRobustStats, MedianMadMinMean) {
  const obs::RobustStats s = obs::robust_stats({5.0, 1.0, 3.0, 100.0, 2.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.mean, 22.2);
  // Deviations from 3: {2, 2, 0, 97, 1} -> median 2. The outlier moves
  // the mean by 20x but the MAD barely notices it.
  EXPECT_DOUBLE_EQ(s.mad, 2.0);
  EXPECT_DOUBLE_EQ(obs::median_of({2.0, 1.0, 4.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(obs::robust_stats({}).median, 0.0);
}

TEST(ObsOverheadEstimate, NegativeDeltaInsideNoiseClampsToZero) {
  const obs::RobustStats off = obs::robust_stats({1.0, 1.02, 0.98});
  const obs::RobustStats on = obs::robust_stats({0.99, 1.0, 0.98});
  const obs::OverheadEstimate e = obs::estimate_overhead(off, on);
  EXPECT_LT(e.raw_percent, 0.0);  // measured "speedup"
  EXPECT_TRUE(e.below_noise_floor);
  EXPECT_DOUBLE_EQ(e.percent, 0.0);  // never report negative overhead
}

TEST(ObsOverheadEstimate, RealOverheadSurvivesTheClamp) {
  const obs::RobustStats off = obs::robust_stats({1.0, 1.02, 0.98});
  const obs::RobustStats on = obs::robust_stats({1.2, 1.21, 1.19});
  const obs::OverheadEstimate e = obs::estimate_overhead(off, on);
  EXPECT_NEAR(e.percent, 20.0, 1.0);
  EXPECT_FALSE(e.below_noise_floor);
}

// --- bench history parsing -------------------------------------------------

TEST(ObsBenchHistory, ParsesHarnessRecord) {
  const obs::json::Value line = parse_ok(history_line(
      "micro_x/case", 2.0, 0.1, {{"iterations", 120.0}, {"warm_hit_rate", 1.0}}));
  auto rec = obs::parse_bench_record(line);
  ASSERT_TRUE(rec.has_value()) << rec.status().describe();
  EXPECT_EQ(rec.value().key, "micro_x/case");
  EXPECT_EQ(rec.value().unit, "seconds");
  EXPECT_DOUBLE_EQ(rec.value().median, 2.0);
  EXPECT_EQ(rec.value().values.size(), 3u);
  ASSERT_NE(rec.value().metric("iterations"), nullptr);
  EXPECT_DOUBLE_EQ(*rec.value().metric("iterations"), 120.0);
  EXPECT_EQ(rec.value().metric("absent"), nullptr);
  EXPECT_EQ(rec.value().git_describe, "test");
  EXPECT_TRUE(rec.value().obs_enabled);
}

TEST(ObsBenchHistory, RejectsWrongSchemaAndMissingMedian) {
  auto wrong = obs::parse_bench_record(parse_ok(R"({"schema":"v0","bench":"b"})"));
  ASSERT_FALSE(wrong.has_value());
  EXPECT_EQ(wrong.diagnostics().category, ErrorCategory::kParse);
  auto missing = obs::parse_bench_record(parse_ok(
      R"({"schema":"lrd-bench-v1","bench":"b","key":"k","unit":"s"})"));
  ASSERT_FALSE(missing.has_value());
}

TEST(ObsBenchHistory, LoadReportsBadLineNumber) {
  const std::string path = temp_path("bad_history.jsonl");
  write_file(path, history_line("k", 1.0, 0.1) + "\n\nnot json\n");
  auto history = obs::load_bench_history(path);
  ASSERT_FALSE(history.has_value());
  EXPECT_EQ(history.diagnostics().category, ErrorCategory::kParse);
  EXPECT_EQ(history.diagnostics().line, 3);
}

// --- regression detector: the golden fixtures ------------------------------

TEST(ObsRegress, InjectedSlowdownMustFlag) {
  // Four healthy runs, then a 3x slowdown appended as the newest record.
  std::string text;
  for (double m : {1.0, 1.01, 0.99, 1.0}) text += history_line("bench/slow", m, 0.02) + "\n";
  text += history_line("bench/slow", 3.0, 0.02) + "\n";
  const std::string path = temp_path("slowdown.jsonl");
  write_file(path, text);

  auto history = obs::load_bench_history(path);
  ASSERT_TRUE(history.has_value()) << history.status().describe();
  const obs::RegressionReport report =
      obs::check_regressions(std::move(history).take(), {}, obs::RegressionConfig{});
  EXPECT_EQ(report.keys_checked, 1u);
  ASSERT_EQ(report.regressions, 1u);
  ASSERT_FALSE(report.findings.empty());
  const obs::RegressionFinding& f = report.findings.front();
  EXPECT_TRUE(f.regression);
  EXPECT_EQ(f.metric, "");  // wall time, not a telemetry metric
  EXPECT_NEAR(f.relative(), 2.0, 0.1);
  EXPECT_NE(report.to_text().find("[REGR]"), std::string::npos);
}

TEST(ObsRegress, WithinJitterWobbleStaysQuiet) {
  // The candidate is +3% on a bench whose own repeats jitter by +-5%:
  // inside both the relative threshold and the MAD band.
  std::string text;
  for (double m : {1.0, 1.04, 0.97, 1.01}) text += history_line("bench/wobble", m, 0.05) + "\n";
  text += history_line("bench/wobble", 1.03, 0.05) + "\n";
  const std::string path = temp_path("wobble.jsonl");
  write_file(path, text);

  auto history = obs::load_bench_history(path);
  ASSERT_TRUE(history.has_value());
  const obs::RegressionReport report =
      obs::check_regressions(std::move(history).take(), {}, obs::RegressionConfig{});
  EXPECT_EQ(report.keys_checked, 1u);
  EXPECT_EQ(report.regressions, 0u);
  EXPECT_FALSE(report.any_regression());
}

TEST(ObsRegress, IterationCountRegressionFlagsWithoutWallTimeChange) {
  // Wall time identical; the solver suddenly needs twice the iterations.
  std::string text;
  for (double its : {100.0, 101.0, 99.0, 100.0})
    text += history_line("bench/solve", 1.0, 0.02, {{"iterations", its}}) + "\n";
  text += history_line("bench/solve", 1.0, 0.02, {{"iterations", 200.0}}) + "\n";
  const std::string path = temp_path("iterations.jsonl");
  write_file(path, text);

  auto history = obs::load_bench_history(path);
  ASSERT_TRUE(history.has_value());
  const obs::RegressionReport report =
      obs::check_regressions(std::move(history).take(), {}, obs::RegressionConfig{});
  ASSERT_EQ(report.regressions, 1u);
  bool found = false;
  for (const obs::RegressionFinding& f : report.findings) {
    if (f.metric == "iterations") {
      EXPECT_TRUE(f.regression);
      found = true;
    } else {
      EXPECT_FALSE(f.regression) << f.metric;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ObsRegress, TwoFileModeAndNewKeys) {
  // CI workflow: --history baseline vs --candidate fresh records. A key
  // with no baseline is reported but never gated.
  std::vector<obs::BenchHistoryRecord> history, candidates;
  for (double m : {1.0, 1.02, 0.98}) {
    auto rec = obs::parse_bench_record(parse_ok(history_line("bench/known", m, 0.02)));
    ASSERT_TRUE(rec.has_value());
    history.push_back(std::move(rec).take());
  }
  auto fresh = obs::parse_bench_record(parse_ok(history_line("bench/known", 1.01, 0.02)));
  auto novel = obs::parse_bench_record(parse_ok(history_line("bench/new", 5.0, 0.1)));
  ASSERT_TRUE(fresh.has_value() && novel.has_value());
  candidates.push_back(std::move(fresh).take());
  candidates.push_back(std::move(novel).take());

  const obs::RegressionReport report = obs::check_regressions(
      std::move(history), std::move(candidates), obs::RegressionConfig{});
  EXPECT_EQ(report.keys_checked, 1u);
  EXPECT_EQ(report.regressions, 0u);
  ASSERT_EQ(report.keys_without_baseline.size(), 1u);
  EXPECT_EQ(report.keys_without_baseline.front(), "bench/new");
  EXPECT_NE(report.to_json().find("\"kind\": \"bench-check\""), std::string::npos);
}

TEST(ObsRegress, ConfigValidation) {
  obs::RegressionConfig cfg;
  EXPECT_TRUE(cfg.validate().is_ok());
  cfg.baseline_window = 0;
  EXPECT_FALSE(cfg.validate().is_ok());
  cfg = obs::RegressionConfig{};
  cfg.mad_k = -1.0;
  EXPECT_FALSE(cfg.validate().is_ok());
}

// --- trace profile ---------------------------------------------------------

constexpr const char* kTrace = R"({
  "displayTimeUnit": "ms",
  "droppedEvents": 2,
  "traceEvents": [
    {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"worker-0"}},
    {"name":"root","cat":"sweep","ph":"X","pid":1,"tid":1,"ts":0,"dur":100},
    {"name":"child","cat":"solver","ph":"X","pid":1,"tid":1,"ts":10,"dur":30},
    {"name":"child","cat":"solver","ph":"X","pid":1,"tid":1,"ts":50,"dur":25},
    {"name":"other","cat":"solver","ph":"X","pid":1,"tid":2,"ts":20,"dur":40},
    {"name":"mark","ph":"i","pid":1,"tid":1,"ts":15,"s":"t"}
  ]
})";

TEST(ObsTraceProfile, SelfTimeExcludesDirectChildren) {
  auto profile = obs::profile_trace(parse_ok(kTrace), 3);
  ASSERT_TRUE(profile.has_value()) << profile.status().describe();
  const obs::TraceProfile& p = profile.value();
  EXPECT_EQ(p.spans, 4u);
  EXPECT_EQ(p.instants, 1u);
  EXPECT_EQ(p.dropped, 2u);
  EXPECT_DOUBLE_EQ(p.span_us, 100.0);

  ASSERT_FALSE(p.by_name.empty());
  // child: 30 + 25 = 55 self; root: 100 - 55 = 45 self; other: 40.
  EXPECT_EQ(p.by_name[0].name, "child");
  EXPECT_DOUBLE_EQ(p.by_name[0].self_us, 55.0);
  double root_self = -1.0;
  for (const obs::ProfileEntry& e : p.by_name)
    if (e.name == "root") root_self = e.self_us;
  EXPECT_DOUBLE_EQ(root_self, 45.0);

  // Categories sorted by total: sweep 100 > solver 95.
  ASSERT_EQ(p.by_category.size(), 2u);
  EXPECT_EQ(p.by_category[0].name, "sweep");
  EXPECT_DOUBLE_EQ(p.by_category[0].total_us, 100.0);
  EXPECT_DOUBLE_EQ(p.by_category[1].total_us, 95.0);
  EXPECT_DOUBLE_EQ(p.by_category[1].self_us, 95.0);

  ASSERT_EQ(p.top_spans.size(), 3u);
  EXPECT_EQ(p.top_spans[0].name, "root");
  EXPECT_DOUBLE_EQ(p.top_spans[0].dur_us, 100.0);
}

TEST(ObsTraceProfile, WorkerUtilizationAndNames) {
  auto profile = obs::profile_trace(parse_ok(kTrace), 3);
  ASSERT_TRUE(profile.has_value());
  const obs::TraceProfile& p = profile.value();
  ASSERT_EQ(p.workers.size(), 2u);
  EXPECT_EQ(p.workers[0].tid, 1);
  EXPECT_EQ(p.workers[0].name, "worker-0");
  // tid 1's only top-level span covers the whole profile; children do
  // not double-count into busy time.
  EXPECT_DOUBLE_EQ(p.workers[0].busy_us, 100.0);
  EXPECT_DOUBLE_EQ(p.workers[0].utilization, 1.0);
  EXPECT_EQ(p.workers[0].timeline.size(), obs::kTimelineWidth);
  EXPECT_EQ(p.workers[1].tid, 2);
  EXPECT_NEAR(p.workers[1].utilization, 0.4, 1e-9);

  ASSERT_EQ(p.instant_counts.size(), 1u);
  EXPECT_EQ(p.instant_counts[0].first, "mark");

  const std::string text = p.to_text();
  EXPECT_NE(text.find("worker-0"), std::string::npos);
  EXPECT_NE(text.find("child"), std::string::npos);
  EXPECT_NE(p.to_json().find("\"kind\": \"profile\""), std::string::npos);
}

TEST(ObsTraceProfile, RejectsNonTraceDocument) {
  auto profile = obs::profile_trace(parse_ok(R"({"foo": 1})"));
  ASSERT_FALSE(profile.has_value());
  EXPECT_EQ(profile.diagnostics().category, ErrorCategory::kParse);
}

// --- manifest diff ---------------------------------------------------------

constexpr const char* kManifestA = R"({
  "tool":"lrdq_sweep","title":"A","wall_seconds":10.0,
  "cells":{"total":2,"computed":2,"cache_hits":0},
  "cache":{"hits":0,"misses":4,"stores":4,"loaded":0},
  "issues":["solver stalled"],
  "cell_times":[
    {"row":0,"col":0,"seconds":4.0,"source":"computed",
     "telemetry":{"total_seconds":4.0,"levels":[
       {"bins":128,"iterations":100,"bracket_lower":0,"bracket_upper":1,
        "bracket_width":1,"occupancy_gap":0.1,"mass_drift":1e-9,"wall_seconds":4.0}]}},
    {"row":0,"col":1,"seconds":6.0,"source":"computed"}
  ]
})";

constexpr const char* kManifestB = R"({
  "tool":"lrdq_sweep","title":"B","wall_seconds":8.0,
  "cells":{"total":2,"computed":1,"cache_hits":1},
  "cache":{"hits":2,"misses":2,"stores":2,"loaded":2},
  "issues":[],
  "cell_times":[
    {"row":0,"col":0,"seconds":3.0,"source":"computed",
     "telemetry":{"total_seconds":3.0,"levels":[
       {"bins":128,"iterations":120,"bracket_lower":0,"bracket_upper":1,
        "bracket_width":1,"occupancy_gap":0.2,"mass_drift":1e-8,"wall_seconds":3.0}]}},
    {"row":1,"col":0,"seconds":5.0,"source":"computed"}
  ]
})";

TEST(ObsManifestDiff, CellMatchingCacheRateAndTelemetry) {
  auto diff = obs::diff_manifests(parse_ok(kManifestA), parse_ok(kManifestB));
  ASSERT_TRUE(diff.has_value()) << diff.status().describe();
  const obs::ManifestDiff& d = diff.value();
  EXPECT_DOUBLE_EQ(d.wall_seconds.a, 10.0);
  EXPECT_DOUBLE_EQ(d.wall_seconds.delta(), -2.0);
  EXPECT_DOUBLE_EQ(d.cache_hit_rate.a, 0.0);
  EXPECT_DOUBLE_EQ(d.cache_hit_rate.b, 0.5);
  EXPECT_EQ(d.common_cells, 1u);
  EXPECT_EQ(d.only_a, 1u);
  EXPECT_EQ(d.only_b, 1u);
  ASSERT_EQ(d.cell_deltas.size(), 1u);
  EXPECT_DOUBLE_EQ(d.cell_deltas[0].delta(), -1.0);
  EXPECT_TRUE(d.has_telemetry);
  EXPECT_DOUBLE_EQ(d.iterations.a, 100.0);
  EXPECT_DOUBLE_EQ(d.iterations.b, 120.0);
  EXPECT_DOUBLE_EQ(d.max_mass_drift.b, 1e-8);
  EXPECT_DOUBLE_EQ(d.issues.a, 1.0);
  EXPECT_DOUBLE_EQ(d.issues.b, 0.0);

  const std::string text = d.to_text();
  EXPECT_NE(text.find("cache hit rate"), std::string::npos);
  EXPECT_NE(d.to_json().find("\"kind\": \"diff-manifest\""), std::string::npos);
}

TEST(ObsManifestDiff, RejectsNonManifest) {
  auto diff = obs::diff_manifests(parse_ok(R"({"foo":1})"), parse_ok(kManifestB));
  ASSERT_FALSE(diff.has_value());
  EXPECT_EQ(diff.diagnostics().category, ErrorCategory::kParse);
}

// --- metrics diff ----------------------------------------------------------

TEST(ObsMetricsDiff, FlattensHistogramsAndTracksMissingSides) {
  const obs::json::Value a = parse_ok(
      R"({"c":{"help":"","type":"counter","value":5},
          "h":{"help":"","type":"histogram","count":3,"sum":6.0,"p50":2.0,"p90":3.0,"p99":3.0}})");
  const obs::json::Value b = parse_ok(
      R"({"c":{"help":"","type":"counter","value":8},
          "g":{"help":"","type":"gauge","value":1.5}})");
  auto diff = obs::diff_metrics(a, b);
  ASSERT_TRUE(diff.has_value());
  const obs::MetricsDiff& d = diff.value();
  EXPECT_EQ(d.only_a, 1u);  // the histogram vanished
  EXPECT_EQ(d.only_b, 1u);  // the gauge appeared

  double c_delta = 0.0;
  bool saw_p90 = false, saw_gauge = false;
  for (const obs::MetricDelta& m : d.metrics) {
    if (m.name == "c") c_delta = m.delta();
    if (m.name == "h.p90") {
      saw_p90 = true;
      EXPECT_TRUE(m.in_a);
      EXPECT_FALSE(m.in_b);
    }
    if (m.name == "g") {
      saw_gauge = true;
      EXPECT_FALSE(m.in_a);
      EXPECT_TRUE(m.in_b);
    }
  }
  EXPECT_DOUBLE_EQ(c_delta, 3.0);
  EXPECT_TRUE(saw_p90);
  EXPECT_TRUE(saw_gauge);
  EXPECT_NE(d.to_json().find("\"kind\": \"diff-metrics\""), std::string::npos);
}

TEST(ObsMetricsDiff, RegistrySnapshotDiffedAgainstItselfIsAllZero) {
  // Integration: the real registry's JSON export parses with the real
  // parser and self-diffs to zero.
  obs::Registry registry;
  registry.counter("test_counter", "help").inc(3);
  registry.histogram("test_hist_seconds", "help").observe(0.5);
  const obs::json::Value snapshot = parse_ok(registry.to_json());
  auto diff = obs::diff_metrics(snapshot, snapshot);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff.value().only_a, 0u);
  EXPECT_EQ(diff.value().only_b, 0u);
  for (const obs::MetricDelta& m : diff.value().metrics) {
    EXPECT_TRUE(m.in_a && m.in_b) << m.name;
    EXPECT_DOUBLE_EQ(m.delta(), 0.0) << m.name;
  }
}

// --- CPU-profile self-time table -------------------------------------------

// Frames a, b, c, d over four records (8 samples): `a;b;a;c` recurses on
// a; the second record's interval differs from the first's; query ids
// 7, 7, 0, 9; then a wrong-schema line and a torn final line.
constexpr const char* kProfile =
    "{\"schema\":\"lrd-profile-v1\",\"query_id\":7,\"stack\":\"a;b;a;c\",\"count\":3,"
    "\"interval_us\":1000}\n"
    "{\"schema\":\"lrd-profile-v1\",\"query_id\":7,\"stack\":\"a;b\",\"count\":2,"
    "\"interval_us\":500}\n"
    "{\"schema\":\"lrd-profile-v1\",\"query_id\":0,\"stack\":\"a;d\",\"count\":2}\n"
    "{\"schema\":\"lrd-profile-v1\",\"query_id\":9,\"stack\":\"a;c\",\"count\":1}\n"
    "{\"schema\":\"lrd-bench-v1\",\"key\":\"x\"}\n"
    "{\"schema\":\"lrd-profile-v1\",\"query_id\":9,\"stack\":\"a;";

obs::SelfTimeTable selftime_ok(const std::string& jsonl) {
  auto table = obs::profile_selftime(jsonl);
  EXPECT_TRUE(table.has_value()) << table.status().describe();
  return std::move(table).take();
}

const obs::SelfTimeEntry* frame_of(const obs::SelfTimeTable& t, const std::string& frame) {
  for (const obs::SelfTimeEntry& e : t.entries)
    if (e.frame == frame) return &e;
  return nullptr;
}

TEST(ObsSelfTime, RecursingFrameCountsOnceTowardTotal) {
  const obs::SelfTimeTable t = selftime_ok(kProfile);
  EXPECT_EQ(t.samples, 8u);
  EXPECT_EQ(t.stacks, 4u);
  const obs::SelfTimeEntry* a = frame_of(t, "a");
  ASSERT_NE(a, nullptr);
  // On every stack once: 3 + 2 + 2 + 1, not 3 twice for `a;b;a;c`.
  EXPECT_EQ(a->total, 8u);
}

TEST(ObsSelfTime, OnlyTheLeafFrameGetsSelfTime) {
  const obs::SelfTimeTable t = selftime_ok(kProfile);
  ASSERT_EQ(t.entries.size(), 4u);
  // a roots every stack and ends none, so it has no self time.
  for (const auto& [frame, self, total] :
       {std::tuple{"a", 0ull, 8ull}, std::tuple{"b", 2ull, 5ull}, std::tuple{"c", 4ull, 4ull},
        std::tuple{"d", 2ull, 2ull}}) {
    const obs::SelfTimeEntry* e = frame_of(t, frame);
    ASSERT_NE(e, nullptr) << frame;
    EXPECT_EQ(e->self, self) << frame;
    EXPECT_EQ(e->total, total) << frame;
  }
}

TEST(ObsSelfTime, CountsWrongSchemaAndTornLinesAsMalformed) {
  EXPECT_EQ(selftime_ok(kProfile).malformed, 2u);
  const std::string text = selftime_ok(kProfile).to_text();
  EXPECT_NE(text.find(", 2 malformed lines skipped"), std::string::npos) << text;
}

TEST(ObsSelfTime, NoParsableRecordIsAParseError) {
  for (const char* jsonl : {"", "\n\n", "not json\n{\"schema\":\"lrd-access-v1\"}\n",
                            "{\"schema\":\"lrd-profile-v1\",\"stack\":\"a"}) {
    auto table = obs::profile_selftime(jsonl);
    ASSERT_FALSE(table.has_value()) << jsonl;
    EXPECT_EQ(table.diagnostics().category, ErrorCategory::kParse) << jsonl;
  }
}

TEST(ObsSelfTime, CountsDistinctNonzeroQueryIds) {
  EXPECT_EQ(selftime_ok(kProfile).queries, 2u);  // 7 and 9; 0 is "no query"
}

TEST(ObsSelfTime, IntervalComesFromTheFirstRecord) {
  EXPECT_DOUBLE_EQ(selftime_ok(kProfile).interval_us, 1000.0);
}

TEST(ObsSelfTime, RowsOrderBySelfThenTotalInTextAndJson) {
  const obs::SelfTimeTable t = selftime_ok(kProfile);
  // c has the most self time; b and d tie on self and b has the larger
  // total; a has the largest total but no self time.
  const std::vector<std::string> order = {"c", "b", "d", "a"};
  ASSERT_EQ(t.entries.size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(t.entries[i].frame, order[i]);

  std::vector<std::string> rows;
  std::istringstream text(t.to_text(0));
  for (std::string line; std::getline(text, line);)
    if (line.size() > 3 && line.find('%') != std::string::npos) rows.push_back(line);
  ASSERT_EQ(rows.size(), order.size()) << t.to_text(0);
  for (std::size_t i = 0; i < order.size(); ++i)
    EXPECT_EQ(rows[i].substr(rows[i].size() - 3), "  " + order[i]) << rows[i];

  const obs::json::Value doc = parse_ok(t.to_json(0));
  const obs::json::Value* frames = doc.find("frames");
  ASSERT_NE(frames, nullptr);
  ASSERT_EQ(frames->size(), order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(frames->items()[i].string_at("frame"), order[i]);
    EXPECT_EQ(frames->items()[i].count_at("self"), t.entries[i].self);
    EXPECT_EQ(frames->items()[i].count_at("total"), t.entries[i].total);
  }
}

// --- rows never merge ------------------------------------------------------

/// The line of `text` that contains `needle`, and the line after it.
std::pair<std::string, std::string> line_and_next(const std::string& text,
                                                  const std::string& needle) {
  std::istringstream in(text);
  std::string line, next;
  while (std::getline(in, line))
    if (line.find(needle) != std::string::npos) {
      std::getline(in, next);
      return {line, next};
    }
  return {};
}

TEST(ObsReportRows, LongSelftimeFrameRendersWholeOnItsOwnLine) {
  // A demangled template frame has no length bound.
  const std::string frame = "lrd::f<" + std::string(600, 'T') + ">()";
  const obs::SelfTimeTable t = selftime_ok(
      "{\"schema\":\"lrd-profile-v1\",\"stack\":\"main;" + frame + "\",\"count\":2}\n"
      "{\"schema\":\"lrd-profile-v1\",\"stack\":\"main;short\",\"count\":1}\n");
  const auto [row, next] = line_and_next(t.to_text(), "lrd::f<");
  EXPECT_EQ(row, "         2  66.7%         2  66.7%  " + frame);
  EXPECT_EQ(next, "         1  33.3%         1  33.3%  short");
}

TEST(ObsReportRows, LongAccessLogIdRendersWholeOnItsOwnLine) {
  // Client ids are whatever the client sent.
  const std::string id(600, 'i');
  const std::string path = temp_path("long_id_access.jsonl");
  write_file(path,
             "{\"schema\":\"lrd-access-v1\",\"id\":\"" + id +
                 "\",\"op\":\"solve\",\"status\":\"ok\",\"code\":0,\"wall_ms\":5,"
                 "\"queue_ms\":1,\"cache_tier\":\"none\"}\n"
                 "{\"schema\":\"lrd-access-v1\",\"id\":\"next\",\"op\":\"solve\","
                 "\"status\":\"ok\",\"code\":0,\"wall_ms\":1,\"queue_ms\":0,"
                 "\"cache_tier\":\"memory\"}\n");
  auto report = obs::doctor::triage_access_log(path);
  ASSERT_TRUE(report.has_value()) << report.status().describe();
  const auto [row, next] = line_and_next(report.value(), id);
  EXPECT_EQ(row, "       5.000      1.000     0  ok                  none    " + id);
  EXPECT_EQ(next, "       1.000      0.000     0  ok                  memory  next");
  std::remove(path.c_str());
}

TEST(ObsReportRows, LongBenchKeyRendersWholeOnItsOwnLine) {
  // Bench keys come from the bench sources and have no length bound.
  const std::string key = "bench/" + std::string(294, 'k');
  obs::RegressionReport report;
  obs::RegressionFinding slow;
  slow.key = key;
  slow.unit = "s";
  slow.baseline = 1.0;
  slow.current = 3.0;
  slow.allowed = 0.1;
  slow.baseline_records = 4;
  slow.regression = true;
  obs::RegressionFinding quick = slow;
  quick.key = "bench/short";
  quick.current = 1.0;
  quick.regression = false;
  report.findings = {slow, quick};
  report.keys_checked = 2;
  report.regressions = 1;
  const auto [row, next] = line_and_next(report.to_text(), key);
  EXPECT_EQ(row, "[REGR] " + key + " 3 s vs 1 s (+200.0%, allowed +0.1 s, window 4)");
  EXPECT_EQ(next, "[ ok ] bench/short                                  1 s vs 1 s (+0.0%, "
                  "allowed +0.1 s, window 4)");
}

}  // namespace
