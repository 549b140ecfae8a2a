// Tests for the serving tier: wire protocol, query service semantics
// (cache provenance, deadlines, required-buffer search) and the unix
// socket server (concurrent sessions, admission control, drain).
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.hpp"
#include "core/traces.hpp"
#include "obs/bundle.hpp"
#include "obs/context.hpp"
#include "obs/doctor.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace lrd;
namespace json = lrd::obs::json;

// A small cell that converges in a few dozen iterations.
const char* kCellFields =
    "\"rates\": [2, 6, 10], \"probs\": [0.3, 0.4, 0.3], \"cutoff\": 5, \"buffer\": 0.2";

serve::Query small_cell_query() {
  auto q = serve::parse_query(std::string("{") + kCellFields + "}");
  EXPECT_TRUE(q.has_value()) << q.status().describe();
  return q.value();
}

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, ParsesFullSolveQuery) {
  const auto parsed = serve::parse_query(
      R"({"id": "q1", "op": "solve", "rates": [2, 10], "probs": [0.5, 0.5],
          "hurst": 0.9, "mean_epoch": 0.08, "cutoff": "inf", "utilization": 0.7,
          "buffer": 1.5, "gap": 0.1, "max_bins": 4096, "deadline_ms": 250,
          "target_loss": 1e-4, "cache": false})");
  ASSERT_TRUE(parsed.has_value()) << parsed.status().describe();
  const serve::Query& q = parsed.value();
  EXPECT_EQ(q.id, "q1");
  EXPECT_EQ(q.op, serve::QueryOp::kSolve);
  EXPECT_EQ(q.rates, (std::vector<double>{2, 10}));
  EXPECT_TRUE(std::isinf(q.cutoff));
  EXPECT_EQ(q.utilization, 0.7);
  EXPECT_EQ(q.normalized_buffer, 1.5);
  EXPECT_EQ(q.target_relative_gap, 0.1);
  EXPECT_EQ(q.max_bins, 4096u);
  EXPECT_EQ(q.deadline_ms, 250u);
  ASSERT_TRUE(q.target_loss.has_value());
  EXPECT_EQ(*q.target_loss, 1e-4);
  EXPECT_FALSE(q.use_cache);
}

TEST(ServeProtocol, DefaultsMirrorLrdqSolve) {
  const serve::Query q = small_cell_query();
  EXPECT_EQ(q.hurst, 0.85);
  EXPECT_EQ(q.mean_epoch, 0.05);
  EXPECT_EQ(q.utilization, 0.8);
  EXPECT_EQ(q.target_relative_gap, 0.2);
  EXPECT_EQ(q.max_bins, std::size_t{1} << 14);
  EXPECT_EQ(q.deadline_ms, 0u);
  EXPECT_TRUE(q.use_cache);
}

TEST(ServeProtocol, RejectsUnknownKeysAndBadTypes) {
  EXPECT_FALSE(serve::parse_query(R"({"utilisation": 0.8})").has_value())
      << "typo'd keys must fail fast, not silently answer another question";
  EXPECT_FALSE(serve::parse_query(R"({"rates": "2,6"})").has_value());
  EXPECT_FALSE(serve::parse_query(R"({"op": "solve"})").has_value()) << "rates/probs required";
  EXPECT_FALSE(serve::parse_query(R"({"target_loss": 2})").has_value());
  EXPECT_FALSE(serve::parse_query("not json").has_value());
  EXPECT_FALSE(serve::parse_query("[1, 2]").has_value());
  // Integers past 2^64 are range-checked before any cast to std::size_t.
  EXPECT_FALSE(
      serve::parse_query(R"({"rates":[2,6],"probs":[.5,.5],"max_bins":1e300})").has_value());
  EXPECT_FALSE(
      serve::parse_query(R"({"rates":[2,6],"probs":[.5,.5],"deadline_ms":2e19})").has_value());
  const auto diag = serve::parse_query(R"({"bogus": 1})").diagnostics();
  EXPECT_NE(diag.message.find("bogus"), std::string::npos)
      << "diagnostic names the offending key";
}

TEST(ServeProtocol, StatusCodesFollowTheExitTaxonomy) {
  EXPECT_EQ(serve::query_status_code(serve::QueryStatus::kOk, ErrorCategory::kNone), 0);
  EXPECT_EQ(serve::query_status_code(serve::QueryStatus::kNotConverged, ErrorCategory::kNone), 1);
  EXPECT_EQ(
      serve::query_status_code(serve::QueryStatus::kDeadlineExceeded, ErrorCategory::kNone), 6);
  EXPECT_EQ(serve::query_status_code(serve::QueryStatus::kCancelled, ErrorCategory::kNone), 6);
  EXPECT_EQ(serve::query_status_code(serve::QueryStatus::kShed, ErrorCategory::kNone), 7);
  EXPECT_EQ(
      serve::query_status_code(serve::QueryStatus::kError, ErrorCategory::kInvalidConfig), 3);
  EXPECT_EQ(serve::query_status_code(serve::QueryStatus::kError, ErrorCategory::kIo), 5);
}

TEST(ServeProtocol, ResponseJsonParsesBackAndEscapes) {
  serve::Response r;
  r.id = "he said \"hi\"\n";
  r.status = serve::QueryStatus::kOk;
  r.has_solve = true;
  r.loss_estimate = 1.0 / 3.0;
  r.loss_lower = 0.25;
  r.loss_upper = 0.5;
  r.stop = "converged";
  r.converged = true;
  r.cache_salt = std::string(runtime::kCacheVersionSalt);
  const auto parsed = json::parse(r.to_json());
  ASSERT_TRUE(parsed.has_value()) << parsed.status().describe();
  const json::Value& v = parsed.value();
  EXPECT_EQ(v.string_at("id"), "he said \"hi\"\n");
  EXPECT_EQ(v.string_at("status"), "ok");
  EXPECT_EQ(v.number_at("code", -1), 0.0);
  ASSERT_NE(v.find("loss"), nullptr);
  // %.17g round-trips the estimate bit-exactly through the JSON layer.
  EXPECT_EQ(v.find("loss")->number_at("estimate"), 1.0 / 3.0);
}

TEST(ServeProtocol, ResponseEchoesTheCorrelationIdWhenMinted) {
  serve::Response r;
  r.id = "q";
  r.status = serve::QueryStatus::kOk;
  // No id minted (obs disabled, or a control op outside any query scope):
  // the field stays off the wire rather than echoing a meaningless 0.
  ASSERT_TRUE(json::parse(r.to_json()).has_value());
  EXPECT_EQ(json::parse(r.to_json()).value().find("query_id"), nullptr);

  r.query_id = 0x1d2c3b4a5ull;  // 48-bit ids are exact in JSON doubles
  const auto parsed = json::parse(r.to_json());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(static_cast<std::uint64_t>(parsed.value().number_at("query_id")),
            0x1d2c3b4a5ull);
}

/// A numeric id and the text every response echoes for it.
struct IdEcho {
  const char* sent;
  const char* echoed;
};

/// Prints the id sent, so the case's name does not hold the load address
/// of its string literals (which changes with every run).
void PrintTo(const IdEcho& c, std::ostream* os) { *os << c.sent; }

class ServeIdEcho : public ::testing::TestWithParam<IdEcho> {};

TEST_P(ServeIdEcho, NumericIdEchoesWithoutLosingDigits) {
  const IdEcho& c = GetParam();
  // Accepted query, rejected query, and the shed path (peek_id).
  const auto q = serve::parse_query(std::string("{\"id\": ") + c.sent + ", \"op\": \"ping\"}");
  ASSERT_TRUE(q.has_value()) << q.status().describe();
  EXPECT_EQ(q.value().id, c.echoed);
  const std::string rejected = std::string("{\"id\": ") + c.sent + ", \"op\": \"pong\"}";
  const serve::QueryService service(nullptr);
  const serve::Response r = service.execute_line(rejected);
  EXPECT_EQ(r.status, serve::QueryStatus::kError);
  EXPECT_EQ(r.id, c.echoed);
  EXPECT_EQ(json::parse(r.to_json()).value().string_at("id"), c.echoed);
  EXPECT_EQ(serve::peek_id(rejected), c.echoed);
}

INSTANTIATE_TEST_SUITE_P(NumericIds, ServeIdEcho,
                         ::testing::Values(IdEcho{"17", "17"}, IdEcho{"0.1", "0.1"},
                                           IdEcho{"1e21", "1e+21"},
                                           IdEcho{"1234567890", "1234567890"},
                                           IdEcho{"9007199254740992", "9007199254740992"},
                                           IdEcho{"100000", "100000"},
                                           IdEcho{"0.1234567891", "0.1234567891"}));

/// A solve query line whose rates and probs are `m`'s marginal printed
/// with %.17g, the way perfbench and lrdq_sweep clients send the Fig. 4/5
/// traces.
std::string trace_query_line(const core::TraceModel& m) {
  const auto join = [](const std::vector<double>& xs) {
    std::string out;
    char buf[32];
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", xs[i]);
      if (i != 0) out += ',';
      out += buf;
    }
    return out;
  };
  return "{\"id\": \"trace\", \"rates\": [" + join(m.marginal.rates()) + "], \"probs\": [" +
         join(m.marginal.probs()) + "], \"cutoff\": 1, \"buffer\": 0.5}";
}

TEST(ServeProtocol, TraceMarginalsReadBackToTheirBits) {
  for (const core::TraceModel& m : {core::mtv_model(), core::bellcore_model()}) {
    SCOPED_TRACE(m.name);
    const std::string line = trace_query_line(m);
    EXPECT_GT(line.size(), 1000u) << "the real traffic's lines are kilobytes long";
    const auto q = serve::parse_query(line);
    ASSERT_TRUE(q.has_value()) << q.status().describe();
    const std::vector<double>& rates = m.marginal.rates();
    const std::vector<double>& probs = m.marginal.probs();
    ASSERT_EQ(q.value().rates.size(), rates.size());
    ASSERT_EQ(q.value().probs.size(), probs.size());
    EXPECT_EQ(std::memcmp(q.value().rates.data(), rates.data(), rates.size() * sizeof(double)), 0);
    EXPECT_EQ(std::memcmp(q.value().probs.data(), probs.data(), probs.size() * sizeof(double)), 0);
  }
}

// ----------------------------------------------------------------- service

TEST(ServeService, SolveMatchesDirectSolverBitExactly) {
  const serve::Query q = small_cell_query();
  const serve::QueryService service(nullptr);
  const serve::Response r = service.execute(q);
  ASSERT_EQ(r.status, serve::QueryStatus::kOk) << r.diagnostic;

  // The same cell through core::FluidModel directly — the lrdq_solve
  // path. Brackets must agree to the last bit.
  const dist::Marginal m(q.rates, q.probs);
  core::ModelConfig mc;
  mc.hurst = q.hurst;
  mc.mean_epoch = q.mean_epoch;
  mc.cutoff = q.cutoff;
  mc.utilization = q.utilization;
  mc.normalized_buffer = q.normalized_buffer;
  queueing::SolverConfig scfg;
  scfg.target_relative_gap = q.target_relative_gap;
  scfg.max_bins = q.max_bins;
  const auto direct = core::FluidModel(m, mc).solve(scfg);

  EXPECT_EQ(r.loss_estimate, direct.loss_estimate());
  EXPECT_EQ(r.loss_lower, direct.loss.lower);
  EXPECT_EQ(r.loss_upper, direct.loss.upper);
  EXPECT_EQ(r.iterations, direct.iterations);
  EXPECT_EQ(r.bins, direct.final_bins);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(r.cache_tier, serve::CacheTier::kNone);
}

TEST(ServeService, CacheProvenanceCoversMemoryAndDiskTiers) {
  const std::string dir = ::testing::TempDir() + "lrd_serve_cache";
  std::filesystem::remove_all(dir);
  const serve::Query q = small_cell_query();
  double first_estimate = 0.0;
  std::uint64_t key = 0;
  {
    runtime::SolverCache cache(dir);
    const serve::QueryService service(&cache);
    const serve::Response miss = service.execute(q);
    ASSERT_EQ(miss.status, serve::QueryStatus::kOk);
    EXPECT_FALSE(miss.cache_hit);
    first_estimate = miss.loss_estimate;
    key = miss.cache_key;

    const serve::Response hit = service.execute(q);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.cache_tier, serve::CacheTier::kMemory);
    EXPECT_EQ(hit.cache_key, key);
    EXPECT_EQ(hit.loss_estimate, first_estimate) << "cached estimate is bit-exact";
    EXPECT_TRUE(std::isnan(hit.loss_lower)) << "the cache has no bracket to report";
    EXPECT_EQ(hit.stop, "cached");
  }
  // A fresh daemon over the same cache dir: the disk tier answers. The
  // warmed memory tier serves it, so force the disk path by evicting —
  // capacity 16 with ~1 warm entry stays memory; instead reopen with a
  // cache whose memory tier we bypass via a cold lookup after eviction
  // pressure. Simplest honest check: stats show the value was loaded and
  // the estimate matches bit-exactly across processes.
  {
    runtime::SolverCache cache(dir);
    EXPECT_EQ(cache.stats().loaded, 1u);
    const serve::QueryService service(&cache);
    const serve::Response hit = service.execute(q);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.loss_estimate, first_estimate)
        << "persisted estimate survives the process boundary bit-exactly";
  }
  // The disk tier as second level, via the provenance bit directly.
  {
    runtime::SolverCacheConfig cfg;
    cfg.disk_dir = dir;
    runtime::SolverCache cache(cfg);
    bool from_disk = false;
    // Key is warmed into memory on load; a synthetic second key exercises
    // the miss path.
    EXPECT_FALSE(cache.lookup(key ^ 1, &from_disk).has_value());
    EXPECT_FALSE(from_disk);
    ASSERT_TRUE(cache.lookup(key, &from_disk).has_value());
    EXPECT_FALSE(from_disk) << "warm-loaded entries are memory-tier hits";
  }
}

TEST(ServeService, CacheBypassSolvesFreshAndStoresNothing) {
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  serve::Query q = small_cell_query();
  q.use_cache = false;
  const serve::Response r = service.execute(q);
  ASSERT_EQ(r.status, serve::QueryStatus::kOk);
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().stores, 0u);
}

TEST(ServeService, DeadlineBoundsTheSolveWithAValidWideBracket) {
  const serve::QueryService service(nullptr);
  serve::Query q = small_cell_query();
  q.cutoff = std::numeric_limits<double>::infinity();
  q.normalized_buffer = 2.0;
  q.target_relative_gap = 1e-5;  // unreachable in the budget
  q.max_bins = 1 << 20;
  q.deadline_ms = 80;
  const auto t0 = std::chrono::steady_clock::now();
  const serve::Response r = service.execute(q);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(r.status, serve::QueryStatus::kDeadlineExceeded);
  EXPECT_EQ(r.code(), 6);
  EXPECT_LT(ms, 5000.0) << "a deadline-bounded query must return promptly, never hang";
  EXPECT_TRUE(std::isfinite(r.loss_lower));
  EXPECT_TRUE(std::isfinite(r.loss_upper));
  EXPECT_LE(r.loss_lower, r.loss_upper) << "the bracket stays valid, just wide";
  EXPECT_NE(r.diagnostic.find("deadline"), std::string::npos);
}

TEST(ServeService, ServiceDefaultAndClampGovernDeadlines) {
  serve::ServiceConfig cfg;
  cfg.default_deadline_ms = 60;
  const serve::QueryService service(nullptr, cfg);
  serve::Query q = small_cell_query();
  q.cutoff = std::numeric_limits<double>::infinity();
  q.normalized_buffer = 2.0;
  q.target_relative_gap = 1e-5;
  q.max_bins = 1 << 20;  // no per-query deadline: the default applies
  EXPECT_EQ(service.execute(q).status, serve::QueryStatus::kDeadlineExceeded);

  serve::ServiceConfig clamp;
  clamp.max_deadline_ms = 60;
  const serve::QueryService clamped(nullptr, clamp);
  q.deadline_ms = 3600 * 1000;  // a client asking for an hour gets the clamp
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(clamped.execute(q).status, serve::QueryStatus::kDeadlineExceeded);
  const double clamped_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(clamped_ms, 5000.0);
}

TEST(ServeService, CancellationYieldsCancelledStatus) {
  const serve::QueryService service(nullptr);
  serve::Query q = small_cell_query();
  q.cutoff = std::numeric_limits<double>::infinity();
  q.normalized_buffer = 2.0;
  q.target_relative_gap = 1e-5;
  q.max_bins = 1 << 20;
  runtime::CancellationToken token;
  token.cancel();  // pre-cancelled: the drain path for queued queries
  const serve::Response r = service.execute(q, &token);
  EXPECT_EQ(r.status, serve::QueryStatus::kCancelled);
  EXPECT_EQ(r.code(), 6);
}

TEST(ServeService, InvalidModelAnswersErrorNotThrow) {
  const serve::QueryService service(nullptr);
  serve::Query q = small_cell_query();
  q.utilization = 1.5;  // outside (0, 1)
  const serve::Response r = service.execute(q);
  EXPECT_EQ(r.status, serve::QueryStatus::kError);
  EXPECT_EQ(r.code(), 3);
  EXPECT_FALSE(r.diagnostic.empty());
}

TEST(ServeService, SubnormalQueryValuesGetATypedAnswer) {
  // The reader accepts subnormals, so they reach the model and the
  // solver: each must answer (or fail typed) within its deadline.
  const serve::QueryService service(nullptr);
  for (const char* field : {R"("buffer": 5e-324)", R"("mean_epoch": 5e-324)",
                            R"("cutoff": 5e-324)", R"("rates": [5e-324, 6, 10])"}) {
    SCOPED_TRACE(field);
    const std::string line =
        std::string(R"({"id": "s", "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3], )"
                    R"("cutoff": 5, "buffer": 0.2, "deadline_ms": 200, )") +
        field + "}";
    const auto q = serve::parse_query(line);
    ASSERT_TRUE(q.has_value()) << q.status().describe();
    serve::Response r;
    ASSERT_NO_THROW(r = service.execute_line(line));
    EXPECT_NE(r.status, serve::QueryStatus::kShed);
    EXPECT_NE(r.status, serve::QueryStatus::kCancelled);
    if (r.status == serve::QueryStatus::kError) {
      EXPECT_NE(r.error_category, ErrorCategory::kInternal) << r.diagnostic;
      EXPECT_FALSE(r.diagnostic.empty());
    }
    const auto back = json::parse(r.to_json());
    ASSERT_TRUE(back.has_value()) << r.to_json();
    EXPECT_EQ(back.value().string_at("id"), "s");
  }
}

TEST(ServeService, ControlOpsAnswerPingStatsInvalidate) {
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  const serve::Response ping =
      service.execute_line(R"({"op": "ping", "id": "p"})");
  EXPECT_EQ(ping.status, serve::QueryStatus::kOk);
  EXPECT_EQ(ping.op, "ping");

  service.execute(small_cell_query());
  const serve::Response stats = service.execute_line(R"({"op": "stats"})");
  const auto parsed = json::parse(stats.to_json());
  ASSERT_TRUE(parsed.has_value());
  const json::Value* cache_obj = parsed.value().find("cache");
  ASSERT_NE(cache_obj, nullptr);
  EXPECT_EQ(cache_obj->number_at("stores", -1), 1.0);
  EXPECT_EQ(cache_obj->number_at("resident", -1), 1.0);

  const serve::Response inval = service.execute_line(R"({"op": "invalidate"})");
  EXPECT_EQ(inval.status, serve::QueryStatus::kOk);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(ServeService, StatsReportLatencyAndQueueWaitQuantiles) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "obs compiled out";
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  const serve::Response stats = service.execute_line(R"({"op": "stats"})");
  const auto parsed = json::parse(stats.to_json());
  ASSERT_TRUE(parsed.has_value());
  for (const char* section : {"latency", "queue_wait"}) {
    const json::Value* obj = parsed.value().find(section);
    ASSERT_NE(obj, nullptr) << section;
    // Quantiles are present (possibly null while empty) alongside a count.
    EXPECT_GE(obj->number_at("count", -1.0), 0.0) << section;
    ASSERT_NE(obj->find("p50_ms"), nullptr) << section;
    ASSERT_NE(obj->find("p99_ms"), nullptr) << section;
  }
}

TEST(ServeService, DumpOpReportsTheBundleOrAConfigError) {
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  obs::bundle::reset_for_tests();
  const serve::Response unconfigured = service.execute_line(R"({"op": "dump", "id": "d"})");
  EXPECT_EQ(unconfigured.status, serve::QueryStatus::kError);
  EXPECT_NE(unconfigured.diagnostic.find("--dump-dir"), std::string::npos);

  if constexpr (obs::kObsEnabled) {
    const auto dir =
        std::filesystem::temp_directory_path() / ("lrd-serve-dump-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    obs::bundle::Config cfg;
    cfg.dir = dir.string();
    cfg.tool = "lrd_tests";
    cfg.install_crash_handler = false;
    obs::bundle::configure(cfg);
    const serve::Response dumped = service.execute_line(R"({"op": "dump", "id": "d"})");
    EXPECT_EQ(dumped.status, serve::QueryStatus::kOk);
    const auto parsed = json::parse(dumped.to_json());
    ASSERT_TRUE(parsed.has_value());
    const std::string bundle = parsed.value().string_at("bundle");
    ASSERT_FALSE(bundle.empty());
    EXPECT_TRUE(std::filesystem::exists(std::filesystem::path(bundle) / "bundle.json"));
    obs::bundle::reset_for_tests();
    std::filesystem::remove_all(dir);
  }
}

TEST(ServeService, RequiredBufferSearchMeetsTheTarget) {
  runtime::SolverCache cache;  // probes share the cache like sweep cells
  const serve::QueryService service(&cache);
  serve::Query q = small_cell_query();
  const serve::Response base = service.execute(q);
  ASSERT_EQ(base.status, serve::QueryStatus::kOk);
  // Ask for one decade below the base cell's loss: a larger buffer than
  // the query's own must be needed.
  q.target_loss = base.loss_estimate / 10.0;
  const serve::Response r = service.execute(q);
  ASSERT_EQ(r.status, serve::QueryStatus::kOk) << r.diagnostic;
  ASSERT_TRUE(r.has_required_buffer);
  EXPECT_GT(r.required_normalized_buffer, q.normalized_buffer);
  EXPECT_LE(r.required_buffer_loss, *q.target_loss)
      << "the reported buffer's own loss estimate meets the target";
  EXPECT_GT(r.required_buffer_mb, 0.0);
  EXPECT_GT(cache.stats().stores, 2u) << "probe solves populate the shared cache";

  // The trivially-satisfied case: target above the base loss comes back
  // with a buffer no larger than the query's own.
  q.target_loss = base.loss_estimate * 2.0;
  const serve::Response easy = service.execute(q);
  ASSERT_TRUE(easy.has_required_buffer);
  EXPECT_LE(easy.required_normalized_buffer, q.normalized_buffer);
}

// ------------------------------------------------------------------ server

class ScriptedClient {
 public:
  explicit ScriptedClient(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
    connected_ =
        fd_ >= 0 && ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0;
  }
  ~ScriptedClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void send_line(const std::string& line) {
    const std::string framed = line + "\n";
    ASSERT_EQ(::send(fd_, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// Reads until `n` response lines arrived or `timeout_ms` elapsed.
  std::vector<json::Value> read_responses(std::size_t n, int timeout_ms = 30000) {
    std::vector<json::Value> out;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
    std::string buf;
    while (out.size() < n && std::chrono::steady_clock::now() < deadline) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char chunk[4096];
      const ssize_t r = ::read(fd_, chunk, sizeof chunk);
      if (r <= 0) break;  // server closed (drain)
      buf.append(chunk, static_cast<std::size_t>(r));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        auto parsed = json::parse(buf.substr(0, nl));
        buf.erase(0, nl + 1);
        if (parsed.has_value()) out.push_back(std::move(parsed).take());
      }
    }
    return out;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

std::string test_socket_path(const char* name) {
  // Keep it short: sun_path is ~108 bytes and TempDir can be deep.
  return "/tmp/lrd_" + std::string(name) + "_" + std::to_string(::getpid()) + ".sock";
}

TEST(ServeServer, AnswersConcurrentClientsAndSharesTheCache) {
  const std::string sock = test_socket_path("srv");
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.threads = 2;
  serve::Server server(cfg, service);
  ASSERT_TRUE(server.start().is_ok());

  const std::string query = std::string("{\"id\": \"c\", ") + kCellFields + "}";
  std::vector<json::Value> first, second;
  {
    ScriptedClient a(sock), b(sock);
    ASSERT_TRUE(a.connected());
    ASSERT_TRUE(b.connected());
    a.send_line(query);
    first = a.read_responses(1);
    b.send_line(query);
    second = b.read_responses(1);
  }
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].string_at("status"), "ok");
  EXPECT_EQ(second[0].string_at("status"), "ok");
  // Client b's query is the same cell: served from the cache that
  // client a's solve populated, estimate bit-identical.
  EXPECT_TRUE(second[0].find("cache")->find("hit")->as_bool());
  EXPECT_EQ(second[0].find("loss")->number_at("estimate"),
            first[0].find("loss")->number_at("estimate"));
  if constexpr (obs::kObsEnabled) {
    // Every admitted query gets its own correlation id, echoed back so
    // the client can hand it to `lrdq_doctor query`.
    EXPECT_GT(first[0].number_at("query_id", 0), 0.0);
    EXPECT_GT(second[0].number_at("query_id", 0), 0.0);
    EXPECT_NE(first[0].number_at("query_id", 0), second[0].number_at("query_id", 0));
  }

  server.request_drain();
  server.wait();
  EXPECT_EQ(server.queries_seen(), 2u);
  EXPECT_EQ(server.queries_shed(), 0u);
}

TEST(ServeServer, ShedsPastTheAdmissionBoundWithCode7) {
  const std::string sock = test_socket_path("shed");
  const serve::QueryService service(nullptr);
  serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.threads = 1;      // one worker, deliberately easy to saturate
  cfg.queue_limit = 1;  // one waiter
  serve::Server server(cfg, service);
  ASSERT_TRUE(server.start().is_ok());

  ScriptedClient client(sock);
  ASSERT_TRUE(client.connected());
  // A slow query occupies the single worker (tight gap, deadline-bounded
  // so the test cannot hang)...
  client.send_line(std::string("{\"id\": \"slow\", ") + kCellFields +
                   ", \"cutoff\": \"inf\", \"buffer\": 2.0, \"gap\": 1e-6"
                   ", \"max_bins\": 1048576, \"deadline_ms\": 1500}");
  // ... give the worker time to pick it up, then burst past the queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  constexpr std::size_t kBurst = 6;
  for (std::size_t i = 0; i < kBurst; ++i)
    client.send_line(std::string("{\"id\": \"burst") + std::to_string(i) + "\", " + kCellFields +
                     "}");

  // Every query — admitted or shed — gets exactly one response.
  const std::vector<json::Value> responses = client.read_responses(1 + kBurst);
  ASSERT_EQ(responses.size(), 1 + kBurst);
  std::size_t shed = 0, answered = 0;
  for (const json::Value& r : responses) {
    if (r.string_at("status") == "shed") {
      ++shed;
      EXPECT_EQ(r.number_at("code", -1), 7.0);
      EXPECT_NE(r.string_at("id").find("burst"), std::string::npos)
          << "only burst queries are shed; the slow query was admitted";
    } else {
      ++answered;
    }
  }
  EXPECT_GE(shed, kBurst - 1) << "with a 1-deep queue the burst must shed";
  EXPECT_EQ(shed, server.queries_shed());
  EXPECT_EQ(answered + shed, 1 + kBurst);

  server.request_stop();  // cancel the slow solve instead of waiting it out
  server.wait();
}

TEST(ServeServer, DrainAnswersAdmittedQueriesThenExits) {
  const std::string sock = test_socket_path("drain");
  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.threads = 1;
  serve::Server server(cfg, service);
  ASSERT_TRUE(server.start().is_ok());

  ScriptedClient client(sock);
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i)
    client.send_line(std::string("{\"id\": \"d") + std::to_string(i) + "\", " + kCellFields + "}");
  // Let the I/O thread admit all three, then drain: every admitted query
  // must still be answered before the server tears down.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  server.request_drain();
  const std::vector<json::Value> responses = client.read_responses(3);
  server.wait();
  ASSERT_EQ(responses.size(), 3u);
  for (const json::Value& r : responses) {
    const double code = r.number_at("code", -1);
    EXPECT_TRUE(code == 0.0 || code == 6.0) << "ok or cancelled-by-drain, never dropped";
  }
  EXPECT_FALSE(std::filesystem::exists(sock)) << "socket file removed on shutdown";
}

TEST(ServeServer, DoctorTriagesALiveDaemonOverItsSocket) {
  if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "obs compiled out";
  const std::string sock = test_socket_path("doc");
  const auto dump_dir =
      std::filesystem::temp_directory_path() / ("lrd-doc-sock-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dump_dir);
  obs::bundle::Config bcfg;
  bcfg.dir = dump_dir.string();
  bcfg.tool = "lrd_tests";
  bcfg.install_crash_handler = false;
  obs::bundle::configure(bcfg);

  runtime::SolverCache cache;
  const serve::QueryService service(&cache);
  serve::ServerConfig cfg;
  cfg.socket_path = sock;
  cfg.threads = 1;
  serve::Server server(cfg, service);
  ASSERT_TRUE(server.start().is_ok());

  // Answer one query so the bundle's flight recorder has a story to tell.
  {
    ScriptedClient client(sock);
    ASSERT_TRUE(client.connected());
    client.send_line(std::string("{\"id\": \"doc\", ") + kCellFields + "}");
    ASSERT_EQ(client.read_responses(1).size(), 1u);
  }

  // The doctor's live-socket path: dump op over the wire, then triage of
  // the bundle the daemon reported.
  const auto report = obs::doctor::triage_socket(sock);
  ASSERT_TRUE(static_cast<bool>(report)) << report.diagnostics().describe();
  EXPECT_NE(report.value().find("bundle"), std::string::npos) << report.value();

  obs::doctor::Options jopt;
  jopt.json = true;
  const auto json_report = obs::doctor::triage_socket(sock, jopt);
  ASSERT_TRUE(static_cast<bool>(json_report));
  const auto parsed = json::parse(json_report.value());
  ASSERT_TRUE(parsed.has_value()) << json_report.value();
  EXPECT_EQ(parsed.value().string_at("kind"), "doctor");

  server.request_drain();
  server.wait();

  // Unreachable socket: a diagnostic, not a hang or a throw.
  EXPECT_FALSE(static_cast<bool>(obs::doctor::triage_socket(sock)));

  obs::bundle::reset_for_tests();
  std::filesystem::remove_all(dump_dir);
}

TEST(ServeServer, DoctorStopsWaitingOnADaemonThatNeverAnswers) {
  const std::string sock = test_socket_path("mute");
  ::unlink(sock.c_str());
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  // Accepts, reads the dump query, never replies; leaves when the client
  // hangs up (or after 10 s, so a broken client cannot hang the test).
  std::thread mute([listener] {
    pollfd lp{listener, POLLIN, 0};
    if (::poll(&lp, 1, 10000) <= 0) return;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) return;
    char chunk[256];
    pollfd pfd{conn, POLLIN, 0};
    while (::poll(&pfd, 1, 10000) > 0 && ::read(conn, chunk, sizeof chunk) > 0) {
    }
    ::close(conn);
  });

  obs::doctor::Options opt;
  opt.timeout_ms = 200;
  const auto start = std::chrono::steady_clock::now();
  const auto report = obs::doctor::triage_socket(sock, opt);
  const auto waited = std::chrono::steady_clock::now() - start;
  mute.join();
  ::close(listener);
  ::unlink(sock.c_str());

  ASSERT_FALSE(static_cast<bool>(report));
  EXPECT_EQ(report.diagnostics().category, ErrorCategory::kIo);
  EXPECT_EQ(exit_code_for(report.diagnostics().category), 5);
  EXPECT_NE(report.diagnostics().message.find("200 ms"), std::string::npos)
      << report.diagnostics().message;
  EXPECT_GE(waited, std::chrono::milliseconds(200));
  EXPECT_LT(waited, std::chrono::seconds(5));
}

}  // namespace
