// lrdq_serve — long-running loss-rate query daemon.
//
//   lrdq_serve --socket /run/lrdq.sock [--threads 2] [--queue-limit 64]
//              [--default-deadline-ms MS] [--max-deadline-ms MS]
//              [--cache-dir DIR] [--cache-capacity N]
//              [--metrics-out FILE] [--trace-out FILE]
//   lrdq_serve --once      < queries.jsonl   (no socket; stdin -> stdout)
//   lrdq_serve --connect /run/lrdq.sock < queries.jsonl   (scripted client)
//
// Queries are line-delimited JSON (docs/SERVE.md). The daemon answers
// concurrent clients from a shared content-addressed sharded solver
// cache; per-query deadlines bound every solve (status
// deadline_exceeded, never a hang); a bounded admission queue sheds
// excess load (status shed, code 7); SIGTERM/SIGINT drain gracefully —
// every admitted query is answered before the daemon exits 0.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "obs/json.hpp"
#include "runtime/cache.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

constexpr const char* kUsage =
    "usage: lrdq_serve --socket PATH [--threads N] [--queue-limit N]\n"
    "                  [--default-deadline-ms MS] [--max-deadline-ms MS]\n"
    "                  [--cache-dir DIR] [--cache-capacity N]\n"
    "                  [--metrics-out FILE] [--trace-out FILE]\n"
    "       lrdq_serve --once    (read queries from stdin, answer on stdout)\n"
    "       lrdq_serve --connect PATH [--timeout-ms MS]  (scripted client; each\n"
    "                  wait for the daemon is bounded by MS, default 120000)\n"
    "       lrdq_serve --help | --version\n"
    "protocol: one JSON query per line, one JSON response per line\n"
    "      (completion order; match by \"id\") — see docs/SERVE.md.\n"
    "serving: per-query deadlines come from the query's deadline_ms, else\n"
    "      --default-deadline-ms (LRDQ_DEADLINE_MS honoured), clamped by\n"
    "      --max-deadline-ms; an expired solve answers with a valid-but-wide\n"
    "      bracket and status deadline_exceeded (code 6), never a hang.\n"
    "      --queue-limit bounds admitted-but-unstarted queries; excess load\n"
    "      is shed with status shed (code 7). SIGTERM/SIGINT drain: every\n"
    "      admitted query is answered, then the daemon exits 0.\n"
    "cache: --cache-dir persists converged solves (CRC-validated, version-\n"
    "      salted); --cache-capacity bounds resident entries (LRU).\n"
    "forensics: --access-log FILE (LRDQ_ACCESS_LOG) appends one JSONL\n"
    "      record per query; --slow-query-ms MS flags slow ones.\n"
    "      --dump-dir DIR (LRDQ_DUMP_DIR) arms diagnostics bundles:\n"
    "      written on fatal signals, on deadline/shed incidents, on\n"
    "      SIGQUIT, and on the \"dump\" control op. --profile-out FILE\n"
    "      (LRDQ_PROFILE) samples CPU stacks and writes a folded\n"
    "      lrd-profile-v1 profile keyed by query_id at exit. Every\n"
    "      response echoes its query_id; triage one end-to-end with\n"
    "      lrdq_doctor query (docs/OBSERVABILITY.md).\n"
    "exit codes: 0 ok, 1 not converged, 2 usage, 3 bad config, 4 parse,\n"
    "            5 I/O, 6 numerical guard / deadline, 7 load shed\n"
    "            (--once/--connect exit with the worst response code seen;\n"
    "            --connect exits 5 when a query goes unanswered)";

volatile std::sig_atomic_t g_signal = 0;
void on_signal(int) { g_signal = 1; }

/// SIGQUIT = "dump a diagnostics bundle now, keep serving". The handler
/// only sets a flag; the signal loop does the (not async-signal-safe)
/// on-demand dump.
volatile std::sig_atomic_t g_dump_requested = 0;
void on_dump_signal(int) { g_dump_requested = 1; }

/// stdin -> stdout execution with no socket: the scripting/testing mode.
/// Exits with the worst response code, so `lrdq_serve --once <<< query`
/// composes with the shell like lrdq_solve does.
int run_once(const lrd::serve::QueryService& service) {
  int worst = 0;
  std::string line;
  for (int ch; (ch = std::fgetc(stdin)) != EOF;) {
    if (ch != '\n') {
      line.push_back(static_cast<char>(ch));
      continue;
    }
    if (!line.empty()) {
      // One correlation id per query line, same as the daemon's
      // admission path, so --once responses carry query_id too.
      lrd::obs::QueryScope qscope(lrd::obs::mint_query_id());
      const lrd::serve::Response r = service.execute_line(line);
      const std::string out = r.to_json();
      std::fwrite(out.data(), 1, out.size(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
      worst = std::max(worst, r.code());
    }
    line.clear();
  }
  if (!line.empty()) {
    lrd::obs::QueryScope qscope(lrd::obs::mint_query_id());
    const lrd::serve::Response r = service.execute_line(line);
    std::printf("%s\n", r.to_json().c_str());
    worst = std::max(worst, r.code());
  }
  return worst;
}

/// Scripted client: send every stdin line to the daemon, then read one
/// response per sent query (the server answers every admitted OR shed
/// query exactly once; completion order, not send order). Exits with the
/// worst response code seen, so CI can assert shed (7) or deadline (6)
/// outcomes from the shell. EOF from the server (drain) or a wait longer
/// than --timeout-ms ends the session early; a session that ends with
/// queries unanswered exits 5 (I/O), naming how many.
int run_connect(const std::string& path, std::size_t timeout_ms) {
  std::vector<std::string> queries;
  {
    std::string line;
    for (int ch; (ch = std::fgetc(stdin)) != EOF;) {
      if (ch != '\n') {
        line.push_back(static_cast<char>(ch));
        continue;
      }
      if (!line.empty()) queries.push_back(line);
      line.clear();
    }
    if (!line.empty()) queries.push_back(line);
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path)
    throw lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                 "lrdq_serve", "socket path fits sockaddr_un",
                                                 "--connect path too long: " + path));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (fd >= 0) ::close(fd);
    throw lrd::DataError(lrd::make_diagnostics(lrd::ErrorCategory::kIo, "lrdq_serve",
                                               "daemon socket accepts connections",
                                               "cannot connect to " + path + ": " +
                                                   std::strerror(errno)));
  }

  for (const std::string& q : queries) {
    const std::string line = q + "\n";
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n <= 0 && errno != EINTR) {
        ::close(fd);
        throw lrd::DataError(lrd::make_diagnostics(lrd::ErrorCategory::kIo, "lrdq_serve",
                                                   "daemon socket accepts writes",
                                                   "send failed mid-session"));
      }
      if (n > 0) off += static_cast<std::size_t>(n);
    }
  }
  // Keep the write side open: the server treats client EOF as "gone" and
  // stops answering, so a scripted session closes only after reading.

  // poll() takes an int: a longer wait is clamped to INT_MAX ms.
  const int wait_ms =
      static_cast<int>(std::min<std::size_t>(timeout_ms, std::numeric_limits<int>::max()));
  int worst = 0;
  std::size_t answered = 0;
  bool timed_out = false;
  std::string buf;
  char chunk[4096];
  while (answered < queries.size()) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    timed_out = ready == 0;
    if (ready <= 0) break;  // daemon wedged: report what we have
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // server closed (drain completed)
    buf.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buf.find('\n')) != std::string::npos) {
      const std::string line = buf.substr(0, nl);
      buf.erase(0, nl + 1);
      if (line.empty()) continue;
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
      ++answered;
      if (auto parsed = lrd::obs::json::parse(line))
        worst = std::max(worst, parsed.value().count_at<int>("code"));
    }
  }
  ::close(fd);
  if (answered < queries.size()) {
    const std::string why = timed_out ? "no response within " + std::to_string(timeout_ms) +
                                            " ms (--timeout-ms)"
                                      : std::string("the daemon closed the connection");
    const lrd::Diagnostics d = lrd::make_diagnostics(
        lrd::ErrorCategory::kIo, "lrdq_serve", "every sent query is answered",
        std::to_string(queries.size() - answered) + " of " + std::to_string(queries.size()) +
            " queries unanswered: " + why);
    std::fprintf(stderr, "error: %s\n", d.describe().c_str());
    return lrd::exit_code_for(d.category);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lrd;
  return cli::run_tool(kUsage, [&] {
    cli::Args args(argc, argv,
                   {"socket", "threads", "queue-limit", "default-deadline-ms",
                    "max-deadline-ms", "cache-dir", "cache-capacity", "connect", "timeout-ms"},
                   {"once"});
    if (args.help()) {
      std::printf("%s\n", kUsage);
      return 0;
    }
    if (args.version()) return cli::print_version("lrdq_serve");
    const cli::ObsSetup obs_setup = cli::setup_observability(args);

    runtime::SolverCacheConfig cache_cfg;
    cache_cfg.disk_dir = args.get("cache-dir", "");
    cache_cfg.capacity_cost = args.get_double("cache-capacity", 0.0);
    runtime::SolverCache cache(cache_cfg);

    serve::ServiceConfig service_cfg;
    service_cfg.default_deadline_ms = cli::resolve_deadline_ms(args, "default-deadline-ms");
    service_cfg.max_deadline_ms = args.get_size("max-deadline-ms", 0);
    const serve::QueryService service(&cache, service_cfg);

    // Effective configuration as it lands in every diagnostics bundle.
    std::string config_json = "{ \"socket\": " + obs::json::escape(args.get("socket", ""));
    config_json += ", \"queue_limit\": " + std::to_string(args.get_size("queue-limit", 64));
    config_json += ", \"default_deadline_ms\": " + std::to_string(service_cfg.default_deadline_ms);
    config_json += ", \"max_deadline_ms\": " + std::to_string(service_cfg.max_deadline_ms);
    config_json += ", \"cache_dir\": " + obs::json::escape(cache_cfg.disk_dir);
    config_json += ", \"cache_capacity\": " + std::to_string(cache_cfg.capacity_cost) + " }";
    const cli::ForensicsSetup forensics = cli::setup_forensics(args, "lrdq_serve", config_json);
    obs::bundle::set_cache_stats_provider([&cache] {
      const runtime::CacheStats s = cache.stats();
      std::string out = "{ \"hits\": " + std::to_string(s.hits);
      out += ", \"misses\": " + std::to_string(s.misses);
      out += ", \"stores\": " + std::to_string(s.stores);
      out += ", \"evictions\": " + std::to_string(s.evictions);
      out += ", \"disk_hits\": " + std::to_string(s.disk_hits);
      out += ", \"stale\": " + std::to_string(s.stale) + " }";
      return out;
    });

    if (args.has("once")) {
      const int code = run_once(service);
      cli::finish_forensics(forensics);
      cli::finish_observability(obs_setup);
      return code;
    }
    if (args.has("connect")) {
      const int code = run_connect(args.get("connect", ""), args.get_size("timeout-ms", 120000));
      cli::finish_forensics(forensics);
      cli::finish_observability(obs_setup);
      return code;
    }

    if (!args.has("socket"))
      throw std::invalid_argument("--socket PATH is required (or --once / --connect)");

    serve::ServerConfig server_cfg;
    server_cfg.socket_path = args.get("socket", "");
    const std::size_t threads = cli::resolve_threads(args);
    server_cfg.threads = threads == 0 ? 2 : threads;
    server_cfg.queue_limit = args.get_size("queue-limit", 64);

    serve::Server server(server_cfg, service);
    if (const lrd::Status st = server.start(); !st.is_ok()) throw_error(st.diagnostics());
    std::fprintf(stderr, "lrdq_serve: serving on %s (%zu workers, queue limit %zu)\n",
                 server_cfg.socket_path.c_str(), server_cfg.threads, server_cfg.queue_limit);

    // Signals set a flag; this loop turns it into a graceful drain (a
    // handler cannot safely touch mutexes or condition variables).
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::signal(SIGQUIT, on_dump_signal);
    while (g_signal == 0) {
      if (g_dump_requested != 0) {
        g_dump_requested = 0;
        const std::string dir = obs::bundle::dump("sigquit");
        if (!dir.empty())
          std::fprintf(stderr, "lrdq_serve: wrote diagnostics bundle %s\n", dir.c_str());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "lrdq_serve: draining\n");
    server.request_drain();
    server.wait();

    const runtime::CacheStats cs = cache.stats();
    std::fprintf(stderr,
                 "lrdq_serve: drained cleanly; %llu queries (%llu shed), cache %llu hits / "
                 "%llu misses / %llu evictions\n",
                 static_cast<unsigned long long>(server.queries_seen()),
                 static_cast<unsigned long long>(server.queries_shed()),
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions));
    cli::finish_forensics(forensics);
    cli::finish_observability(obs_setup);
    return 0;
  });
}
