// Tests of the forensic layer: flight-recorder ring semantics (capacity
// wraparound, tag sanitization, JSONL round-trips), cross-thread
// recording with a concurrent reader (the FlightRecorder* suites run
// under the ThreadSanitizer CI job to pin the lock-free paths down),
// the structured access log, diagnostics-bundle dumps — including the
// fork-based crash-signal path, which stays OUT of the TSan filter
// because fork plus a re-raised SIGABRT is not a data-race probe — and
// the lrdq_doctor triage built on top of both artifacts.
#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/bundle.hpp"
#include "obs/context.hpp"
#include "obs/doctor.hpp"
#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace lrd;
namespace fs = std::filesystem;

#define SKIP_IF_OBS_DISABLED()                            \
  if constexpr (!obs::kObsEnabled) {                      \
    GTEST_SKIP() << "obs compiled out (LRD_DISABLE_OBS)"; \
  }

/// Fresh temp directory per test; removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& stem) {
    path = fs::temp_directory_path() /
           (stem + "-" + std::to_string(::getpid()) + "-" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string slurp(const fs::path& p) {
  std::ifstream in(p);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Events in the snapshot recorded with the given kind.
std::vector<obs::flight::Recorded> events_of_kind(obs::flight::EventKind k) {
  std::vector<obs::flight::Recorded> out;
  for (const auto& r : obs::flight::snapshot())
    if (r.event.kind == static_cast<std::uint16_t>(k)) out.push_back(r);
  return out;
}

TEST(FlightRecorder, RecordsEventsWithPayloadsAndMergesSorted) {
  SKIP_IF_OBS_DISABLED();
  obs::flight::reset();
  obs::flight::record(obs::flight::EventKind::kCacheHit, "k1", 42, 1, 0.0);
  obs::flight::record(obs::flight::EventKind::kSolveFinish, "converged", 7, 256, 3.25);
  const auto snap = obs::flight::snapshot();
  ASSERT_EQ(snap.size(), 2u);
  for (std::size_t i = 1; i < snap.size(); ++i)
    EXPECT_GE(snap[i].event.ts_us, snap[i - 1].event.ts_us);
  const auto hits = events_of_kind(obs::flight::EventKind::kCacheHit);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].event.a, 42u);
  EXPECT_EQ(hits[0].event.b, 1u);
  EXPECT_STREQ(hits[0].event.tag, "k1");
  const auto fin = events_of_kind(obs::flight::EventKind::kSolveFinish);
  ASSERT_EQ(fin.size(), 1u);
  EXPECT_DOUBLE_EQ(fin[0].event.x, 3.25);
  EXPECT_GE(obs::flight::total_recorded(), 2u);
  obs::flight::reset();
}

TEST(FlightRecorder, WraparoundKeepsExactlyTheNewestEvents) {
  SKIP_IF_OBS_DISABLED();
  obs::flight::reset();
  constexpr std::uint64_t kOverflow = 12;
  constexpr std::uint64_t kTotal = obs::flight::kCapacity + kOverflow;
  for (std::uint64_t i = 0; i < kTotal; ++i)
    obs::flight::record(obs::flight::EventKind::kCacheMiss, "", i);
  const auto snap = obs::flight::snapshot();
  ASSERT_EQ(snap.size(), obs::flight::kCapacity);
  // The oldest kOverflow were overwritten; the survivors follow in order.
  for (std::size_t i = 0; i < snap.size(); ++i) {
    ASSERT_EQ(snap[i].event.a, kOverflow + i);
    ASSERT_EQ(snap[i].index, kOverflow + i);
  }
  EXPECT_EQ(obs::flight::total_recorded(), kTotal);
  obs::flight::reset();
}

TEST(FlightRecorder, TagsAreSanitizedAndTruncatedAtRecordTime) {
  SKIP_IF_OBS_DISABLED();
  obs::flight::reset();
  obs::flight::record(obs::flight::EventKind::kDump, "a\"b\\c\nd\x01" "e");
  const std::string long_tag(2 * obs::flight::kMaxTagBytes, 'x');
  obs::flight::record(obs::flight::EventKind::kDump, long_tag);
  const auto dumps = events_of_kind(obs::flight::EventKind::kDump);
  ASSERT_EQ(dumps.size(), 2u);
  EXPECT_STREQ(dumps[0].event.tag, "a_b_c_d_e");
  EXPECT_EQ(std::string(dumps[1].event.tag).size(), obs::flight::kMaxTagBytes);
  obs::flight::reset();
}

TEST(FlightRecorder, FormattedEventsRoundTripThroughTheJsonParser) {
  SKIP_IF_OBS_DISABLED();
  obs::flight::reset();
  const obs::QueryId qid = obs::mint_query_id();
  {
    obs::QueryScope scope(qid);
    obs::flight::record(obs::flight::EventKind::kQueryFinished, "q-17", 6, 1500, 12.5);
  }
  const std::string jsonl = obs::flight::to_jsonl();
  ASSERT_FALSE(jsonl.empty());
  std::istringstream lines(jsonl);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  auto parsed = obs::json::parse(line);
  ASSERT_TRUE(static_cast<bool>(parsed)) << line;
  const obs::json::Value& v = parsed.value();
  EXPECT_EQ(v.string_at("kind"), "query_finished");
  EXPECT_EQ(v.string_at("tag"), "q-17");
  EXPECT_EQ(v.number_at("a"), 6.0);
  EXPECT_EQ(v.number_at("b"), 1500.0);
  EXPECT_NEAR(v.number_at("x"), 12.5, 1e-9);
  EXPECT_GT(v.number_at("ts_us"), 0.0);
  EXPECT_GT(v.number_at("tid"), 0.0);
  // The ambient correlation id is stamped into the event and survives
  // the JSONL round trip exactly (48-bit ids are double-exact).
  EXPECT_EQ(static_cast<obs::QueryId>(v.number_at("qid")), qid);
  obs::flight::reset();
}

TEST(FlightRecorder, KindNamesAreStableWireNames) {
  EXPECT_STREQ(obs::flight::event_kind_name(obs::flight::EventKind::kCrashSignal),
               "crash_signal");
  EXPECT_STREQ(obs::flight::event_kind_name(obs::flight::EventKind::kQueryShed),
               "query_shed");
  EXPECT_STREQ(obs::flight::event_kind_name(static_cast<obs::flight::EventKind>(9999)),
               "unknown");
}

// The TSan target: writers on their own rings, one reader snapshotting
// concurrently. Per-ring append order must survive the merge, and no
// event may be torn (kind/a agree about the writer).
TEST(FlightRecorder, CrossThreadRecordingKeepsPerRingOrderUnderAReader) {
  SKIP_IF_OBS_DISABLED();
  obs::flight::reset();
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const auto& r : obs::flight::snapshot()) {
        // A torn event would pair a kCacheStore kind with another
        // writer's payload scheme; b always mirrors a here.
        ASSERT_EQ(r.event.b, r.event.a + 1);
      }
    }
  });
  // Writers hold an exit barrier: a ring is released for reuse at thread
  // exit, so on a small machine a writer scheduled to completion before
  // the others start would hand its ring to the next writer and collapse
  // the distinct-rings property this test asserts.
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([w, &done] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t a = (w << 32) | i;
        obs::flight::record(obs::flight::EventKind::kCacheStore, "w", a, a + 1);
      }
      done.fetch_add(1, std::memory_order_relaxed);
      while (done.load(std::memory_order_relaxed) < kWriters) std::this_thread::yield();
    });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  // Quiescent snapshot: per-tid indices strictly increase and per-writer
  // payload sequences stay in append order.
  std::set<std::uint32_t> tids;
  const auto stores = events_of_kind(obs::flight::EventKind::kCacheStore);
  EXPECT_FALSE(stores.empty());
  for (const auto& r : stores) tids.insert(r.tid);
  EXPECT_GE(tids.size(), 2u);  // distinct threads landed on distinct rings
  for (std::uint32_t tid : tids) {
    std::uint64_t prev = 0;
    bool first = true;
    for (const auto& r : stores) {
      if (r.tid != tid) continue;
      if (!first) {
        EXPECT_GT(r.index, prev);
      }
      prev = r.index;
      first = false;
    }
  }
  EXPECT_EQ(obs::flight::total_recorded(), kWriters * kPerWriter);
  obs::flight::reset();
}

TEST(FlightEventLog, AppendsParseableRecordsAndFlagsSlowOnes) {
  TempDir tmp("lrd-eventlog");
  const std::string path = (tmp.path / "access.jsonl").string();
  ASSERT_TRUE(obs::EventLog::global().open(path, 5.0));
  EXPECT_TRUE(obs::EventLog::global().active());

  obs::AccessRecord fast;
  fast.tool = "test";
  fast.id = "q\"uote";  // escaping must hold
  fast.op = "solve";
  fast.status = "ok";
  fast.wall_ms = 1.25;
  obs::EventLog::global().append(fast);

  obs::AccessRecord slow = fast;
  slow.id = "slow-one";
  slow.wall_ms = 50.0;
  slow.queue_ms = 3.0;
  slow.cache_hit = true;
  slow.cache_tier = "disk";
  slow.diagnostic = "took a while";
  obs::EventLog::global().append(slow);
  obs::EventLog::global().close();
  EXPECT_FALSE(obs::EventLog::global().active());

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  auto first = obs::json::parse(line);
  ASSERT_TRUE(static_cast<bool>(first)) << line;
  EXPECT_EQ(first.value().string_at("schema"), "lrd-access-v1");
  EXPECT_EQ(first.value().string_at("id"), "q\"uote");
  ASSERT_NE(first.value().find("slow"), nullptr);
  EXPECT_FALSE(first.value().find("slow")->as_bool());

  ASSERT_TRUE(std::getline(in, line));
  auto second = obs::json::parse(line);
  ASSERT_TRUE(static_cast<bool>(second)) << line;
  EXPECT_TRUE(second.value().find("slow")->as_bool());
  EXPECT_EQ(second.value().string_at("cache_tier"), "disk");
  EXPECT_EQ(second.value().string_at("diagnostic"), "took a while");
}

TEST(FlightEventLog, InactiveLogIgnoresAppends) {
  obs::EventLog::global().close();
  obs::AccessRecord rec;
  rec.tool = "test";
  obs::EventLog::global().append(rec);  // must not crash or write anywhere
  EXPECT_FALSE(obs::EventLog::global().active());
}

TEST(BundleDump, OnDemandDumpWritesAParseableBundleWithTheFlightTail) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-bundle");
  obs::flight::reset();
  obs::flight::record(obs::flight::EventKind::kQueryFinished, "bundle-q", 0, 10, 2.0);

  obs::bundle::Config cfg;
  cfg.dir = tmp.path.string();
  cfg.tool = "lrd_tests";
  cfg.config_json = "{ \"testing\": true }";
  cfg.install_crash_handler = false;
  obs::bundle::configure(cfg);
  ASSERT_TRUE(obs::bundle::configured());
  obs::bundle::set_cache_stats_provider(
      [] { return std::string("{ \"hits\": 3 }"); });

  const std::string dir = obs::bundle::dump("unit_test");
  ASSERT_FALSE(dir.empty());
  auto manifest = obs::json::parse_file(dir + "/bundle.json");
  ASSERT_TRUE(static_cast<bool>(manifest));
  EXPECT_EQ(manifest.value().string_at("schema"), "lrd-bundle-v1");
  EXPECT_EQ(manifest.value().string_at("tool"), "lrd_tests");
  EXPECT_EQ(manifest.value().string_at("reason"), "unit_test");
  ASSERT_NE(manifest.value().find("crash"), nullptr);
  EXPECT_FALSE(manifest.value().find("crash")->as_bool());

  const std::string flight = slurp(dir + "/flight.jsonl");
  EXPECT_NE(flight.find("bundle-q"), std::string::npos);
  // The dump records its own kDump breadcrumb before writing.
  EXPECT_NE(flight.find("\"dump\""), std::string::npos);
  EXPECT_TRUE(static_cast<bool>(obs::json::parse_file(dir + "/build.json")));
  EXPECT_TRUE(static_cast<bool>(obs::json::parse_file(dir + "/config.json")));
  EXPECT_TRUE(static_cast<bool>(obs::json::parse_file(dir + "/metrics.json")));
  auto cache = obs::json::parse_file(dir + "/cache.json");
  ASSERT_TRUE(static_cast<bool>(cache));
  EXPECT_EQ(cache.value().number_at("hits"), 3.0);

  obs::bundle::set_cache_stats_provider(nullptr);
  obs::bundle::reset_for_tests();
  EXPECT_EQ(obs::bundle::dump("after_reset"), "");
  obs::flight::reset();
}

TEST(BundleDump, IncidentDumpsAreRateLimited) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-bundle-rate");
  obs::bundle::Config cfg;
  cfg.dir = tmp.path.string();
  cfg.tool = "lrd_tests";
  cfg.install_crash_handler = false;
  cfg.min_incident_interval_ms = 60000;
  obs::bundle::configure(cfg);
  EXPECT_FALSE(obs::bundle::dump_incident("deadline_exceeded").empty());
  EXPECT_TRUE(obs::bundle::dump_incident("deadline_exceeded").empty());
  obs::bundle::reset_for_tests();
}

// A thread refused a flight registration records nothing, ever; the
// bundle says so instead of looking complete.
TEST(BundleDump, ManifestAndTriageCountFlightEventsOfRefusedThreads) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-bundle-dropped");
  obs::flight::reset();
  obs::bundle::Config cfg;
  cfg.dir = tmp.path.string();
  cfg.tool = "lrd_tests";
  cfg.install_crash_handler = false;
  obs::bundle::configure(cfg);
  obs::doctor::Options jopt;
  jopt.json = true;
  // flight_dropped of a manifest or report object; -1 when either count is missing.
  auto flight_dropped = [](const obs::json::Value* v) {
    if (v == nullptr || v->find("profiler_dropped") == nullptr) return -1.0;
    return v->number_at("flight_dropped", -1.0);
  };
  auto bundle_dropped = [&](const std::string& dir) {
    auto manifest = obs::json::parse_file(dir + "/bundle.json");
    return manifest ? flight_dropped(&manifest.value()) : -1.0;
  };
  auto triage_dropped = [&](const std::string& dir) {
    auto parsed = obs::json::parse(obs::doctor::triage_bundle(dir, jopt).value());
    return parsed ? flight_dropped(parsed.value().find("bundle")) : -1.0;
  };

  const std::string normal = obs::bundle::dump("normal");
  ASSERT_FALSE(normal.empty());
  EXPECT_EQ(bundle_dropped(normal), 0.0);
  EXPECT_EQ(triage_dropped(normal), 0.0);
  EXPECT_EQ(obs::doctor::triage_bundle(normal).value().find("dropped:"), std::string::npos);

  // Hold every registration, then record from one more thread.
  std::latch registered(obs::flight::kMaxThreads);
  std::latch release(1);
  std::vector<std::thread> holders;
  for (std::size_t i = 0; i < obs::flight::kMaxThreads; ++i)
    holders.emplace_back([&] {
      obs::flight::this_thread();
      registered.count_down();
      release.wait();
    });
  registered.wait();
  std::thread([] { obs::flight::record(obs::flight::EventKind::kQueryStarted, "refused"); })
      .join();
  release.count_down();
  for (std::thread& t : holders) t.join();
  EXPECT_GE(obs::flight::dropped(), 1u);

  const std::string lossy = obs::bundle::dump("lossy");
  ASSERT_FALSE(lossy.empty());
  EXPECT_GE(bundle_dropped(lossy), 1.0);
  EXPECT_GE(triage_dropped(lossy), 1.0);
  EXPECT_NE(obs::doctor::triage_bundle(lossy).value().find("dropped:"), std::string::npos);

  obs::bundle::reset_for_tests();
  obs::flight::reset();
}

TEST(BundleDump, UnconfiguredDumperReturnsEmpty) {
  obs::bundle::reset_for_tests();
  EXPECT_FALSE(obs::bundle::configured());
  EXPECT_EQ(obs::bundle::dump("nope"), "");
  EXPECT_EQ(obs::bundle::dump_incident("nope"), "");
}

// Fork-based crash-path test: the child arms the crash handlers, leaves
// a breadcrumb in its flight ring, then dies of SIGABRT. The parent
// asserts the death was by that signal AND that the crash bundle the
// handler wrote (async-signal-safe path) parses and carries the
// breadcrumb plus the synthesized crash_signal event. Deliberately not
// in the TSan CI filter: fork-and-die is not a race probe.
TEST(BundleCrash, CrashHandlerWritesAParseableBundleFromTheSignal) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-crash");
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: no gtest machinery from here on; _exit on any failure so a
    // broken path reads as "wrong exit" rather than a bogus pass.
    obs::flight::reset();
    obs::flight::record(obs::flight::EventKind::kFailpoint, "test.crash_site", 5);
    obs::bundle::Config cfg;
    cfg.dir = tmp.path.string();
    cfg.tool = "lrd_tests";
    cfg.config_json = "{ \"crash\": \"test\" }";
    cfg.install_crash_handler = true;
    obs::bundle::configure(cfg);
    ::raise(SIGABRT);
    ::_exit(0);  // unreachable when the handler re-raises correctly
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited normally instead of dying of SIGABRT";
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const fs::path bundle = tmp.path / ("crash-" + std::to_string(pid));
  ASSERT_TRUE(fs::exists(bundle / "bundle.json")) << bundle;
  auto manifest = obs::json::parse_file((bundle / "bundle.json").string());
  ASSERT_TRUE(static_cast<bool>(manifest));
  EXPECT_EQ(manifest.value().string_at("schema"), "lrd-bundle-v1");
  ASSERT_NE(manifest.value().find("crash"), nullptr);
  EXPECT_TRUE(manifest.value().find("crash")->as_bool());
  EXPECT_EQ(manifest.value().number_at("signal"), static_cast<double>(SIGABRT));

  const std::string flight = slurp(bundle / "flight.jsonl");
  EXPECT_NE(flight.find("test.crash_site"), std::string::npos)
      << "triggering event missing from the crash tail";
  EXPECT_NE(flight.find("crash_signal"), std::string::npos);
  // Every line of the handler-formatted tail must be valid JSON.
  std::istringstream lines(flight);
  std::string line;
  std::size_t parsed_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(static_cast<bool>(obs::json::parse(line))) << line;
    ++parsed_lines;
  }
  EXPECT_GE(parsed_lines, 2u);
  EXPECT_TRUE(static_cast<bool>(obs::json::parse_file((bundle / "build.json").string())));
  EXPECT_TRUE(static_cast<bool>(obs::json::parse_file((bundle / "config.json").string())));
}

// Crash-path correlation: the child arms the profiler in manual mode,
// takes a sample inside a QueryScope, then dies. The bundle's
// profile.jsonl (raw crash tail, written by the signal handler) must
// carry a sample stamped with the crashing query's id. Like the other
// fork test, deliberately not in the TSan CI filter.
TEST(BundleCrash, CrashBundleCarriesProfileTailWithTheCrashingQueryId) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-crash-prof");
  const obs::QueryId qid = obs::mint_query_id();  // minted pre-fork so the parent knows it
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    obs::flight::reset();
    obs::profiler::reset();
    obs::profiler::Options popt;
    popt.interval_us = 0;  // manual samples only: deterministic tail
    if (!obs::profiler::start(popt)) ::_exit(10);
    obs::bundle::Config cfg;
    cfg.dir = tmp.path.string();
    cfg.tool = "lrd_tests";
    cfg.install_crash_handler = true;
    obs::bundle::configure(cfg);
    {
      obs::QueryScope scope(qid);
      obs::profiler::sample_now();
      ::raise(SIGABRT);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const fs::path bundle = tmp.path / ("crash-" + std::to_string(pid));
  const fs::path profile = bundle / "profile.jsonl";
  ASSERT_TRUE(fs::exists(profile)) << bundle;
  bool found = false;
  std::istringstream lines(slurp(profile));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto parsed = obs::json::parse(line);
    ASSERT_TRUE(static_cast<bool>(parsed)) << line;
    EXPECT_EQ(parsed.value().string_at("schema"), "lrd-profile-v1");
    if (static_cast<obs::QueryId>(parsed.value().number_at("query_id")) == qid) found = true;
  }
  EXPECT_TRUE(found) << "no profile sample carries the crashing query's id";
}

TEST(Doctor, TriagesABundleIntoIncidentsSlowQueriesAndCacheSections) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-doctor");
  obs::flight::reset();
  obs::flight::record(obs::flight::EventKind::kQueryAdmitted, "", 2);
  obs::flight::record(obs::flight::EventKind::kCacheMiss, "", 11);
  obs::flight::record(obs::flight::EventKind::kQueryFinished, "slowest", 0, 900, 45.0);
  obs::flight::record(obs::flight::EventKind::kQueryFinished, "fast", 0, 100, 1.0);
  obs::flight::record(obs::flight::EventKind::kQueryShed, "shed-q", 64);
  obs::flight::record(obs::flight::EventKind::kDeadlineExceeded, "solve", 0, 0, 250.0);

  obs::bundle::Config cfg;
  cfg.dir = tmp.path.string();
  cfg.tool = "lrd_tests";
  cfg.install_crash_handler = false;
  obs::bundle::configure(cfg);
  const std::string dir = obs::bundle::dump("doctor_test");
  ASSERT_FALSE(dir.empty());

  auto text = obs::doctor::triage_bundle(dir);
  ASSERT_TRUE(static_cast<bool>(text)) << text.diagnostics().describe();
  EXPECT_NE(text.value().find("incidents (2)"), std::string::npos) << text.value();
  EXPECT_NE(text.value().find("query_shed"), std::string::npos);
  EXPECT_NE(text.value().find("deadline_exceeded"), std::string::npos);
  EXPECT_NE(text.value().find("slowest"), std::string::npos);
  EXPECT_NE(text.value().find("== cache =="), std::string::npos);

  obs::doctor::Options jopt;
  jopt.json = true;
  auto json = obs::doctor::triage_bundle(dir, jopt);
  ASSERT_TRUE(static_cast<bool>(json));
  auto parsed = obs::json::parse(json.value());
  ASSERT_TRUE(static_cast<bool>(parsed)) << json.value();
  EXPECT_EQ(parsed.value().string_at("kind"), "doctor");
  EXPECT_EQ(parsed.value().string_at("source"), "bundle");
  ASSERT_NE(parsed.value().find("incidents"), nullptr);
  ASSERT_NE(parsed.value().find("slow_queries"), nullptr);

  // The slow table prefers per-query finishes and ranks by wall time.
  const std::string& body = json.value();
  EXPECT_LT(body.find("slowest"), body.find("\"fast\""));

  obs::bundle::reset_for_tests();
  obs::flight::reset();
}

TEST(Doctor, TriagesAnAccessLogAndRejectsGarbage) {
  TempDir tmp("lrd-doctor-log");
  const std::string path = (tmp.path / "access.jsonl").string();
  ASSERT_TRUE(obs::EventLog::global().open(path, 2.0));
  obs::AccessRecord rec;
  rec.tool = "lrdq_serve";
  rec.id = "a1";
  rec.op = "solve";
  rec.status = "ok";
  rec.wall_ms = 10.0;
  obs::EventLog::global().append(rec);
  rec.id = "a2";
  rec.status = "deadline_exceeded";
  rec.code = 6;
  rec.wall_ms = 0.5;
  obs::EventLog::global().append(rec);
  obs::EventLog::global().close();

  auto text = obs::doctor::triage_access_log(path);
  ASSERT_TRUE(static_cast<bool>(text)) << text.diagnostics().describe();
  EXPECT_NE(text.value().find("a1"), std::string::npos);
  EXPECT_NE(text.value().find("deadline_exceeded"), std::string::npos);

  obs::doctor::Options jopt;
  jopt.json = true;
  auto json = obs::doctor::triage_access_log(path, jopt);
  ASSERT_TRUE(static_cast<bool>(json));
  auto parsed = obs::json::parse(json.value());
  ASSERT_TRUE(static_cast<bool>(parsed));
  EXPECT_EQ(parsed.value().string_at("kind"), "doctor");
  EXPECT_EQ(parsed.value().number_at("records"), 2.0);
  EXPECT_EQ(parsed.value().number_at("failed"), 1.0);

  const std::string garbage = (tmp.path / "garbage.jsonl").string();
  {
    std::ofstream out(garbage);
    out << "not json at all\n{{{\n";
  }
  EXPECT_FALSE(static_cast<bool>(obs::doctor::triage_access_log(garbage)));
  EXPECT_FALSE(static_cast<bool>(obs::doctor::triage_bundle((tmp.path / "missing").string())));
}

TEST(Doctor, QueryJoinRendersMatchingArtifactsAcrossSources) {
  SKIP_IF_OBS_DISABLED();
  TempDir tmp("lrd-doctor-query");
  const obs::QueryId qid = obs::mint_query_id();
  const obs::QueryId other = obs::mint_query_id();

  // Access log: one record for our query, one for another.
  const std::string log_path = (tmp.path / "access.jsonl").string();
  ASSERT_TRUE(obs::EventLog::global().open(log_path, 0.0));
  obs::AccessRecord rec;
  rec.tool = "lrd_tests";
  rec.id = "join-me";
  rec.op = "solve";
  rec.status = "ok";
  rec.query_id = qid;
  obs::EventLog::global().append(rec);
  rec.id = "not-me";
  rec.query_id = other;
  obs::EventLog::global().append(rec);
  obs::EventLog::global().close();

  // Bundle: flight events recorded under the query's scope plus noise.
  obs::flight::reset();
  {
    obs::QueryScope scope(qid);
    obs::flight::record(obs::flight::EventKind::kSolveFinish, "converged", 12, 256, 2.5);
  }
  obs::flight::record(obs::flight::EventKind::kCacheMiss, "", 1);
  obs::bundle::Config cfg;
  cfg.dir = tmp.path.string();
  cfg.tool = "lrd_tests";
  cfg.install_crash_handler = false;
  obs::bundle::configure(cfg);
  const std::string bundle_dir = obs::bundle::dump("query_join_test");
  ASSERT_FALSE(bundle_dir.empty());

  // Profile: one matching folded record, one foreign.
  const std::string prof_path = (tmp.path / "prof.jsonl").string();
  {
    std::ofstream out(prof_path);
    out << "{\"schema\": \"lrd-profile-v1\", \"query_id\": " << qid
        << ", \"stack\": \"main;solve;level\", \"count\": 3, \"interval_us\": 0}\n";
    out << "{\"schema\": \"lrd-profile-v1\", \"query_id\": " << other
        << ", \"stack\": \"main;other\", \"count\": 1, \"interval_us\": 0}\n";
  }

  obs::doctor::QuerySources src;
  src.access_log = log_path;
  src.bundle_dir = bundle_dir;
  src.profile = prof_path;
  auto text = obs::doctor::triage_query(qid, src);
  ASSERT_TRUE(static_cast<bool>(text)) << text.diagnostics().describe();
  EXPECT_NE(text.value().find("join-me"), std::string::npos) << text.value();
  EXPECT_EQ(text.value().find("not-me"), std::string::npos);
  EXPECT_NE(text.value().find("solve_finish"), std::string::npos);
  EXPECT_NE(text.value().find("main;solve;level"), std::string::npos);
  EXPECT_EQ(text.value().find("main;other"), std::string::npos);

  obs::doctor::Options jopt;
  jopt.json = true;
  auto json = obs::doctor::triage_query(qid, src, jopt);
  ASSERT_TRUE(static_cast<bool>(json));
  auto parsed = obs::json::parse(json.value());
  ASSERT_TRUE(static_cast<bool>(parsed)) << json.value();
  EXPECT_EQ(parsed.value().string_at("source"), "query");
  EXPECT_EQ(static_cast<obs::QueryId>(parsed.value().number_at("query_id")), qid);
  const obs::json::Value* prof = parsed.value().find("profile");
  ASSERT_NE(prof, nullptr);
  EXPECT_EQ(prof->number_at("samples"), 3.0);

  // No sources at all is a config error, not an empty report.
  EXPECT_FALSE(static_cast<bool>(obs::doctor::triage_query(qid, obs::doctor::QuerySources{})));

  obs::bundle::reset_for_tests();
  obs::flight::reset();
}

}  // namespace
