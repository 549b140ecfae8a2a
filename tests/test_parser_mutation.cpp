// Seeded mutation tests of the parsers of outside bytes that have no
// file-format checksum to lean on: serve protocol query lines
// (serve::parse_query), rate trace files (RateTrace::try_load) and the
// observability artifacts lrdq_doctor reads (a bundle's flight.jsonl and
// bundle.json, an access log, a folded CPU profile, a Chrome trace, a
// pair of run manifests, a pair of metrics snapshots). Each input sees
// 200 trials from a fixed seed (a pair's files take turns, five trials
// at a time), 40 of each mutation: a byte flip, truncation at a random
// offset, a duplicated span, a number token replaced by an extreme
// (1e300, -1e300, 2^64, the smallest subnormal, -0), and a value swapped
// for one of another type. Every trial must keep the parser's contract:
//   * it never throws;
//   * it yields a value, or a kParse / kInvalidConfig diagnostic;
//   * a parsed trace holds exactly its header's count of rates, each
//     finite and >= 0;
//   * a query line that fails to parse gets, through
//     QueryService::execute_line, a kError response whose code is the
//     category's exit code and whose JSON parses back;
//   * every lrdq_doctor entry point, in text and in JSON, yields a report
//     (whose JSON parses back to an object) or a kParse / kIo diagnostic.
// A plain gtest with no fuzzing engine: the seed makes every trial
// reproducible, and the suite runs unchanged under the sanitizers (which
// is what catches an out-of-range float-to-integer cast).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "obs/doctor.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace lrd;

constexpr int kTrials = 200;

enum class Mutation { kFlip, kTruncate, kDuplicateSpan, kExtremeNumber, kSwapType };
constexpr int kMutationKinds = 5;

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kFlip: return "byte flip";
    case Mutation::kTruncate: return "truncation";
    case Mutation::kDuplicateSpan: return "duplicated span";
    case Mutation::kExtremeNumber: return "extreme number";
    case Mutation::kSwapType: return "type swap";
  }
  return "?";
}

/// The valid query lines of the serve tests.
const std::vector<std::string> kQueryLines = {
    R"({"rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3], "cutoff": 5, "buffer": 0.2})",
    R"({"id": "c", "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3], "cutoff": 5, "buffer": 0.2})",
    R"({"id": "q1", "op": "solve", "rates": [2, 10], "probs": [0.5, 0.5], "hurst": 0.9, )"
    R"("mean_epoch": 0.08, "cutoff": "inf", "utilization": 0.7, "buffer": 1.5, "gap": 0.1, )"
    R"("max_bins": 4096, "deadline_ms": 250, "target_loss": 1e-4, "cache": false})",
    R"({"op": "ping", "id": "p"})",
    R"({"op": "stats"})",
    R"({"op": "invalidate"})",
    R"({"op": "dump", "id": "d"})",
};

/// 16 samples over four body lines.
const std::string kTrace =
    "0.01 16\n"
    "1.5 0 2.25 3\n"
    "0.75 4 1 2\n"
    "5.5 0.5 6 1.25\n"
    "2 3.5 0 7\n";

const char* const kExtremes[] = {"1e300", "-1e300", "18446744073709551616", "5e-324", "-0"};

/// A half-open byte span of one value token.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool is_string = false;
};

/// Number and string tokens outside string literals (a trace has only
/// numbers). A number is a maximal run of [0-9+-.eE] that starts with a
/// digit, '-' or '.'.
std::vector<Span> value_tokens(const std::string& text) {
  const auto numeric = [](char c) {
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E';
  };
  std::vector<Span> out;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '"') j += text[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, text.size());
      out.push_back({i, j, true});
      i = j;
    } else if ((c >= '0' && c <= '9') || c == '-' || c == '.') {
      std::size_t j = i;
      while (j < text.size() && numeric(text[j])) ++j;
      out.push_back({i, j, false});
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// Raw engine output only: mt19937_64's sequence is fixed by the
  /// standard, the distributions' are not.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  std::string apply(Mutation m, std::string bytes) {
    switch (m) {
      case Mutation::kFlip: {
        const std::size_t at = below(bytes.size());
        bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ (1 + below(255)));
        break;
      }
      case Mutation::kTruncate: bytes.resize(below(bytes.size())); break;
      case Mutation::kDuplicateSpan: {
        const std::size_t from = below(bytes.size());
        const std::size_t len = 1 + below(std::min<std::size_t>(16, bytes.size() - from));
        bytes.insert(below(bytes.size() + 1), bytes.substr(from, len));
        break;
      }
      case Mutation::kExtremeNumber: {
        std::vector<Span> numbers;
        for (const Span& s : value_tokens(bytes))
          if (!s.is_string) numbers.push_back(s);
        const Span s = numbers[below(numbers.size())];
        bytes.replace(s.begin, s.end - s.begin, kExtremes[below(std::size(kExtremes))]);
        break;
      }
      case Mutation::kSwapType: {
        // Each value becomes one of a different JSON type.
        static const char* const kForNumber[] = {R"("7")", "true", "null", "[1]", "{}"};
        static const char* const kForString[] = {"7", "false", "null", R"(["x"])", "{}"};
        const auto tokens = value_tokens(bytes);
        const Span s = tokens[below(tokens.size())];
        const char* swapped = s.is_string ? kForString[below(std::size(kForString))]
                                          : kForNumber[below(std::size(kForNumber))];
        bytes.replace(s.begin, s.end - s.begin, swapped);
        break;
      }
    }
    return bytes;
  }

 private:
  std::mt19937_64 rng_;
};

/// True when `text` holds a token `kind` can rewrite (the control ops'
/// query lines carry no number).
bool applicable(Mutation kind, const std::string& text) {
  if (kind != Mutation::kExtremeNumber) return true;
  for (const Span& s : value_tokens(text))
    if (!s.is_string) return true;
  return false;
}

bool is_input_category(ErrorCategory c) {
  return c == ErrorCategory::kParse || c == ErrorCategory::kInvalidConfig;
}

/// The sample count a trace's header declares (the text parsed, so the
/// header is well formed).
double declared_count(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line) && line.find_first_not_of(" \t\r") == std::string::npos) {
  }
  std::istringstream header(line);
  std::string delta, count;
  header >> delta >> count;
  return std::strtod(count.c_str(), nullptr);
}

TEST(ParserMutation, QueryLinesYieldAQueryOrATypedErrorResponse) {
  Mutator mutator(0x9e7e'5e17'ab1e'0001ull);
  const serve::QueryService service(nullptr);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    std::string seed;
    do {
      seed = kQueryLines[mutator.below(kQueryLines.size())];
    } while (!applicable(kind, seed));
    const std::string line = mutator.apply(kind, seed);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind) + ": " + line);

    std::optional<Expected<serve::Query>> parsed;
    ASSERT_NO_THROW(parsed.emplace(serve::parse_query(line)));
    if (parsed->has_value()) continue;
    const ErrorCategory category = parsed->status().category();
    EXPECT_TRUE(is_input_category(category)) << category_name(category);

    serve::Response response;
    ASSERT_NO_THROW(response = service.execute_line(line));
    EXPECT_EQ(response.status, serve::QueryStatus::kError);
    EXPECT_EQ(response.code(), exit_code_for(category));
    const std::string wire = response.to_json();
    const auto back = obs::json::parse(wire);
    ASSERT_TRUE(back.has_value()) << wire;
    EXPECT_TRUE(back.value().is_object()) << wire;
  }
}

TEST(ParserMutation, TraceFilesYieldTheirDeclaredRatesOrAParseError) {
  Mutator mutator(0x9e7e'5e17'ab1e'0002ull);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    const std::string text = mutator.apply(kind, kTrace);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind) + ": " + text);

    std::istringstream in(text);
    std::optional<Expected<traffic::RateTrace>> parsed;
    ASSERT_NO_THROW(parsed.emplace(traffic::RateTrace::try_load(in)));
    if (!parsed->has_value()) {
      EXPECT_TRUE(is_input_category(parsed->status().category()))
          << category_name(parsed->status().category());
      continue;
    }
    const traffic::RateTrace& trace = parsed->value();
    EXPECT_EQ(static_cast<double>(trace.size()), declared_count(text));
    for (double r : trace.rates()) EXPECT_TRUE(std::isfinite(r) && r >= 0.0) << r;
  }
}

// --- lrdq_doctor's artifacts -------------------------------------------------

const std::string kBundleManifest =
    R"({"schema": "lrd-bundle-v1", "version": 1, "tool": "lrdq_serve", "reason": "crash", )"
    R"("crash": true, "signal": 6, "pid": 4242, "timestamp_unix": 1700000000, )"
    R"("flight_dropped": 0, "profiler_dropped": 3})";

const std::string kFlight =
    R"({"ts_us": 10.5, "qid": 42, "kind": "query_admitted", "tag": "", "a": 1, "b": 0, "x": 0, "tid": 7})"
    "\n"
    R"({"ts_us": 11.25, "qid": 42, "kind": "query_started", "tag": "q1", "a": 0, "b": 0, "x": 0, "tid": 8})"
    "\n"
    R"({"ts_us": 20, "qid": 42, "kind": "solve_level", "tag": "", "a": 1, "b": 128, "x": 0, "tid": 8})"
    "\n"
    R"({"ts_us": 35.5, "qid": 42, "kind": "query_finished", "tag": "q1", "a": 0, "b": 250, "x": 1.5, "tid": 8})"
    "\n"
    R"({"ts_us": 40, "qid": 43, "kind": "failpoint", "tag": "serve.write", "a": 3, "b": 0, "x": 0, "tid": 8})"
    "\n"
    R"({"ts_us": 41, "qid": 0, "kind": "crash_signal", "tag": "SIGABRT", "a": 6, "b": 0, "x": 0, "tid": 8})"
    "\n";

const std::string kAccessLog =
    R"({"schema": "lrd-access-v1", "ts_unix": 1700000000, "tool": "lrdq_serve", "id": "q1", )"
    R"("query_id": 42, "op": "solve", "status": "ok", "code": 0, "wall_ms": 1.5, "queue_ms": 0.25, )"
    R"("cache_hit": false, "cache_tier": "none", "bracket_width": 0.1, "slow": true})"
    "\n"
    R"({"schema": "lrd-access-v1", "ts_unix": 1700000001, "tool": "lrdq_serve", "id": "q2", )"
    R"("query_id": 43, "op": "solve", "status": "deadline_exceeded", "code": 6, "wall_ms": 12.5, )"
    R"("queue_ms": 3, "cache_hit": true, "cache_tier": "disk", "slow": true, "diagnostic": "late"})"
    "\n";

const std::string kProfile =
    R"({"schema": "lrd-profile-v1", "query_id": 42, "stack": "main;solve;fold", "count": 3, "interval_us": 1999})"
    "\n"
    R"({"schema": "lrd-profile-v1", "query_id": 42, "stack": "main;solve;level;solve", "count": 1, "interval_us": 1999})"
    "\n"
    R"({"schema": "lrd-profile-v1", "query_id": 0, "tid": 8, "stack": "0x1;0x2", "count": 1, "ts_us": 12.5})"
    "\n";

const std::string kChromeTrace =
    R"({"displayTimeUnit": "ms", "droppedEvents": 2, "traceEvents": [)"
    R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "worker-0"}}, )"
    R"({"name": "sweep.cell", "cat": "sweep", "ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 100, "args": {"qid": 42}}, )"
    R"({"name": "solver.solve", "cat": "solver", "ph": "X", "pid": 1, "tid": 1, "ts": 10, "dur": 30, "args": {"qid": 42}}, )"
    R"({"name": "solver.solve", "cat": "solver", "ph": "X", "pid": 1, "tid": 2, "ts": 20, "dur": 40}, )"
    R"({"name": "cache.hit", "ph": "i", "pid": 1, "tid": 1, "ts": 15, "s": "t", "args": {"qid": 42}}]})";

const std::string kManifestA =
    R"({"tool": "lrdq_sweep", "title": "A", "wall_seconds": 10.0, )"
    R"("cells": {"total": 2, "computed": 2, "cache_hits": 0, "degraded": 1, "timed_out": 0, "retried": 1}, )"
    R"("cache": {"hits": 0, "misses": 4}, "issues": ["solver stalled"], "cell_times": [)"
    R"({"row": 0, "col": 0, "seconds": 4.0, "telemetry": {"levels": [)"
    R"({"bins": 128, "iterations": 100, "occupancy_gap": 0.1, "mass_drift": 1e-9}]}}, )"
    R"({"row": 0, "col": 1, "seconds": 6.0}]})";

const std::string kManifestB =
    R"({"tool": "lrdq_sweep", "title": "B", "wall_seconds": 8.0, )"
    R"("cells": {"total": 2, "computed": 1, "cache_hits": 1}, )"
    R"("cache": {"hits": 2, "misses": 2}, "issues": [], "cell_times": [)"
    R"({"row": 0, "col": 0, "seconds": 3.0, "telemetry": {"levels": [)"
    R"({"bins": 128, "iterations": 120, "occupancy_gap": 0.2, "mass_drift": 1e-8}]}}, )"
    R"({"row": 1, "col": 0, "seconds": null}]})";

const std::string kMetricsA =
    R"({"c": {"help": "", "type": "counter", "value": 5}, )"
    R"("h": {"help": "", "type": "histogram", "count": 3, "sum": 6.0, "p50": 2.0, "p90": 3.0, "p99": 3.0}})";

const std::string kMetricsB =
    R"({"c": {"help": "", "type": "counter", "value": 8}, "g": {"help": "", "type": "gauge", "value": 1.5}})";

/// One rendering of an lrdq_doctor entry point: text, or JSON when asked.
using Render = std::function<Expected<std::string>(bool json)>;

/// lrdq_doctor's contract on hostile artifacts: a report, or a kParse /
/// kIo diagnostic, in both renderings; never an exception. A JSON report
/// parses back to an object.
void expect_report_or_input_error(const Render& render) {
  for (const bool json : {false, true}) {
    std::optional<Expected<std::string>> report;
    ASSERT_NO_THROW(report.emplace(render(json)));
    if (!report->has_value()) {
      const ErrorCategory category = report->status().category();
      EXPECT_TRUE(category == ErrorCategory::kParse || category == ErrorCategory::kIo)
          << category_name(category);
      continue;
    }
    if (!json) continue;
    const auto back = obs::json::parse(report->value());
    ASSERT_TRUE(back.has_value()) << report->value();
    EXPECT_TRUE(back.value().is_object()) << report->value();
  }
}

obs::doctor::Options as(bool json) {
  obs::doctor::Options opt;
  opt.json = json;
  return opt;
}

/// Renders an analysis whose result type has to_text() / to_json().
template <typename Result>
Expected<std::string> rendered(const Expected<Result>& result, bool json) {
  if (!result) return result.status();
  return json ? result.value().to_json() : result.value().to_text();
}

/// The documents an analysis reads; the first parse error is the
/// reader's answer when some bytes are not JSON.
Expected<std::vector<obs::json::Value>> parse_all(const std::vector<std::string>& texts) {
  std::vector<obs::json::Value> docs;
  for (const std::string& text : texts) {
    auto doc = obs::json::parse(text);
    if (!doc) return doc.status();
    docs.push_back(std::move(doc).take());
  }
  return docs;
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// A scratch directory for one suite's artifact files.
std::filesystem::path scratch_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Runs 200 seeded trials over the files of one artifact (one file, or
/// a pair): each trial mutates one file, the next file every five
/// trials so each sees every mutation, and hands all of them to `check`.
void mutate_trials(std::uint64_t seed, const std::vector<std::string>& files,
                   const std::function<void(const std::vector<std::string>&)>& check) {
  Mutator mutator(seed);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    std::vector<std::string> mutated = files;
    std::string& target = mutated[static_cast<std::size_t>(trial / kMutationKinds) % files.size()];
    target = mutator.apply(kind, target);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind) + ": " + target);
    check(mutated);
  }
}

TEST(ParserMutation, BundlesYieldATriageOrAnInputError) {
  const std::filesystem::path dir = scratch_dir("mutation_bundle");
  mutate_trials(0x9e7e'5e17'ab1e'0003ull, {kFlight, kBundleManifest},
                [&](const std::vector<std::string>& files) {
                  write_text(dir / "flight.jsonl", files[0]);
                  write_text(dir / "bundle.json", files[1]);
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_bundle(dir.string(), as(json));
                  });
                  obs::doctor::QuerySources sources;
                  sources.bundle_dir = dir.string();
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_query(42, sources, as(json));
                  });
                });
  std::filesystem::remove_all(dir);
}

TEST(ParserMutation, AccessLogsYieldATriageOrAnInputError) {
  const std::filesystem::path dir = scratch_dir("mutation_access");
  obs::doctor::QuerySources sources;
  sources.access_log = (dir / "access.jsonl").string();
  mutate_trials(0x9e7e'5e17'ab1e'0004ull, {kAccessLog},
                [&](const std::vector<std::string>& files) {
                  write_text(sources.access_log, files[0]);
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_access_log(sources.access_log, as(json));
                  });
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_query(42, sources, as(json));
                  });
                });
  std::filesystem::remove_all(dir);
}

TEST(ParserMutation, FoldedProfilesYieldASelfTimeTableOrAnInputError) {
  const std::filesystem::path dir = scratch_dir("mutation_profile");
  obs::doctor::QuerySources sources;
  sources.profile = (dir / "profile.jsonl").string();
  mutate_trials(0x9e7e'5e17'ab1e'0005ull, {kProfile},
                [&](const std::vector<std::string>& files) {
                  expect_report_or_input_error([&](bool json) {
                    return rendered(obs::profile_selftime(files[0]), json);
                  });
                  write_text(sources.profile, files[0]);
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_query(42, sources, as(json));
                  });
                });
  std::filesystem::remove_all(dir);
}

TEST(ParserMutation, ChromeTracesYieldAProfileOrAnInputError) {
  const std::filesystem::path dir = scratch_dir("mutation_trace");
  obs::doctor::QuerySources sources;
  sources.trace = (dir / "trace.json").string();
  mutate_trials(0x9e7e'5e17'ab1e'0006ull, {kChromeTrace},
                [&](const std::vector<std::string>& files) {
                  expect_report_or_input_error([&](bool json) -> Expected<std::string> {
                    auto docs = parse_all(files);
                    if (!docs) return docs.status();
                    return rendered(obs::profile_trace(docs.value()[0]), json);
                  });
                  write_text(sources.trace, files[0]);
                  expect_report_or_input_error([&](bool json) {
                    return obs::doctor::triage_query(42, sources, as(json));
                  });
                });
  std::filesystem::remove_all(dir);
}

TEST(ParserMutation, ManifestPairsYieldADiffOrAnInputError) {
  mutate_trials(0x9e7e'5e17'ab1e'0007ull, {kManifestA, kManifestB},
                [&](const std::vector<std::string>& files) {
                  expect_report_or_input_error([&](bool json) -> Expected<std::string> {
                    auto docs = parse_all(files);
                    if (!docs) return docs.status();
                    return rendered(obs::diff_manifests(docs.value()[0], docs.value()[1]), json);
                  });
                });
}

TEST(ParserMutation, MetricsSnapshotPairsYieldADiffOrAnInputError) {
  mutate_trials(0x9e7e'5e17'ab1e'0008ull, {kMetricsA, kMetricsB},
                [&](const std::vector<std::string>& files) {
                  expect_report_or_input_error([&](bool json) -> Expected<std::string> {
                    auto docs = parse_all(files);
                    if (!docs) return docs.status();
                    return rendered(obs::diff_metrics(docs.value()[0], docs.value()[1]), json);
                  });
                });
}
}  // namespace
