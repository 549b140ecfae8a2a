// serve_mixed: an lrdq_serve daemon (2 workers, memory-only cache) on a
// unix socket, driven closed-loop over 2 connections with 4 pipelined
// queries each. The seeded stream is ~90% repeats of a 32-cell hot set
// (cache hits once primed) and ~10% fresh figure-grade cells with unique
// buffers (misses), from both trace marginals.
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/traces.hpp"
#include "layers.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace lrd::perfbench {

namespace {

constexpr double kGap = 0.2;
constexpr std::size_t kMaxBins = 1 << 12;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDepth = 4;
constexpr double kFreshShare = 0.1;
/// Latencies and throughput are taken per window of this many seconds,
/// then the median across windows is reported.
constexpr double kWindow = 1.0;
constexpr std::size_t kSetups = 5;

/// One client connection with line framing.
class Connection {
 public:
  explicit Connection(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    // The daemon binds shortly after it starts; retry for up to 10 s.
    const Clock::time_point t0 = Clock::now();
    for (;;) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd_ < 0) throw std::runtime_error("socket() failed");
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) return;
      ::close(fd_);
      fd_ = -1;
      if (seconds_since(t0) > 10.0) throw std::runtime_error("daemon socket never accepted");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const noexcept { return fd_; }

  void send(const std::string& line) {
    std::string buf = line + "\n";
    std::size_t off = 0;
    while (off < buf.size()) {
      const ssize_t n = ::send(fd_, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("daemon socket write failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available (blocking once) and returns complete lines.
  std::vector<std::string> receive() {
    char chunk[65536];
    ssize_t n;
    do n = ::recv(fd_, chunk, sizeof chunk, 0);
    while (n < 0 && errno == EINTR);
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    pending_.append(chunk, static_cast<std::size_t>(n));
    std::vector<std::string> lines;
    std::size_t at;
    while ((at = pending_.find('\n')) != std::string::npos) {
      lines.push_back(pending_.substr(0, at));
      pending_.erase(0, at + 1);
    }
    return lines;
  }

  /// Blocks until one full response line arrives.
  std::string receive_one() {
    while (true) {
      if (!ready_.empty()) {
        std::string l = std::move(ready_.front());
        ready_.erase(ready_.begin());
        return l;
      }
      for (auto& l : receive()) ready_.push_back(std::move(l));
    }
  }

 private:
  int fd_ = -1;
  std::string pending_;
  std::vector<std::string> ready_;
};

obs::json::Value parse_response(const std::string& line) {
  auto doc = obs::json::parse(line);
  if (!doc || !doc.value().is_object()) throw std::runtime_error("unparsable response: " + line);
  return doc.value();
}

struct Loss {
  double estimate = 0.0;
  bool hit = false;
};

Loss loss_of(const obs::json::Value& r) {
  Loss l;
  if (const auto* loss = r.find("loss")) l.estimate = loss->number_at("estimate", NAN);
  if (const auto* cache = r.find("cache"))
    if (const auto* hit = cache->find("hit")) l.hit = hit->as_bool();
  return l;
}

/// The fixed hot set: both trace models, 4 buffers x 4 cutoffs each.
std::vector<Cell> hot_cells(const core::TraceModel& mtv, const core::TraceModel& bc) {
  std::vector<Cell> cells;
  for (const core::TraceModel* m : {&mtv, &bc})
    for (double b : {0.05, 0.2, 0.5, 1.0})
      for (double tc : {0.1, 1.0, 10.0, 100.0})
        cells.push_back(make_cell(m->marginal, m->hurst, m->mean_epoch, m->utilization, b, tc, kGap,
                                  kMaxBins));
  return cells;
}

/// A running daemon with the hot set primed.
struct Session {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Connection>> conns;
  std::vector<double> hot_estimates;
};

Session start_session(const Options& opt, const std::vector<Cell>& hot, const std::string& sock,
                      std::size_t index) {
  Session s;
  ::unlink(sock.c_str());
  std::vector<std::string> argv{opt.tools_dir + "/lrdq_serve", "--socket", sock, "--threads", "2"};
  if (opt.trace) {
    argv.push_back("--trace-out");
    argv.push_back(opt.work_dir + "/serve-trace.json");
  }
  s.daemon = std::make_unique<Daemon>(argv, opt.work_dir + "/serve-" + std::to_string(index) + ".log");
  for (std::size_t c = 0; c < kConnections; ++c) s.conns.push_back(std::make_unique<Connection>(sock));
  Connection& first = *s.conns.front();
  first.send("{\"id\": \"ping\", \"op\": \"ping\"}");
  if (parse_response(first.receive_one()).number_at("code", -1) != 0)
    throw std::runtime_error("daemon ping failed");
  for (std::size_t i = 0; i < hot.size(); ++i) first.send(query_line(hot[i], "prime-" + std::to_string(i)));
  s.hot_estimates.assign(hot.size(), NAN);
  for (std::size_t n = 0; n < hot.size(); ++n) {
    const obs::json::Value r = parse_response(first.receive_one());
    const std::string id = r.string_at("id");
    if (r.number_at("code", -1) != 0) throw std::runtime_error("priming query failed: " + id);
    s.hot_estimates.at(std::stoul(id.substr(6))) = loss_of(r).estimate;
  }
  return s;
}

struct InFlight {
  Clock::time_point sent;
  long hot = -1;  ///< hot-set index, -1 for a fresh cell
};

}  // namespace

Outcome run_serve_mixed(const Options& opt) {
  Outcome out;
  ::mkdir(opt.work_dir.c_str(), 0755);
  const std::string sock = opt.work_dir + "/serve.sock";

  const core::TraceModel mtv = core::mtv_model(), bc = core::bellcore_model();
  std::vector<double> setups;
  Session session;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    if (session.daemon) {
      session.conns.clear();
      const ChildExit e = session.daemon->stop();
      if (e.code != 0) throw std::runtime_error("daemon exited " + std::to_string(e.code));
    }
    const Clock::time_point t0 = Clock::now();
    session = start_session(opt, hot_cells(mtv, bc), sock, rep);
    setups.push_back(seconds_since(t0));
  }
  const std::vector<Cell> hot = hot_cells(mtv, bc);

  std::mt19937_64 rng(opt.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> pick_hot(0, hot.size() - 1);
  const std::vector<double> fresh_cutoffs{0.1, 1.0, 10.0, 100.0};
  std::size_t sequence = 0;
  // Fresh buffers are log-uniform on [0.05, 1] s, where every cell of
  // both models converges at 4096 bins, and unique in the run.
  auto next_query = [&](InFlight& f) {
    const std::string id = std::to_string(sequence++);
    if (unit(rng) >= kFreshShare) {
      f.hot = static_cast<long>(pick_hot(rng));
      return query_line(hot[static_cast<std::size_t>(f.hot)], id);
    }
    f.hot = -1;
    const core::TraceModel& m = unit(rng) < 0.5 ? mtv : bc;
    const double tc = fresh_cutoffs[static_cast<std::size_t>(unit(rng) * 4.0) % 4];
    const double b = 0.05 * std::pow(20.0, unit(rng));
    return query_line(make_cell(m.marginal, m.hurst, m.mean_epoch, m.utilization, b, tc, kGap, kMaxBins), id);
  };

  std::vector<std::map<std::string, InFlight>> inflight(kConnections);
  const auto windows = static_cast<std::size_t>(std::max(1.0, std::floor(opt.seconds / kWindow)));
  std::vector<std::vector<double>> hit_rt(windows), miss_rt(windows);
  std::size_t shed = 0;
  auto send_next = [&](std::size_t c) {
    InFlight f;
    const std::string line = next_query(f);
    const std::string id = std::to_string(sequence - 1);
    f.sent = Clock::now();
    session.conns[c]->send(line);
    inflight[c][id] = f;
  };

  const double cpu0 = session.daemon->cpu_seconds();
  const Clock::time_point start = Clock::now();
  for (std::size_t c = 0; c < kConnections; ++c)
    for (std::size_t k = 0; k < kDepth; ++k) send_next(c);
  bool sending = true;
  std::size_t open = kConnections * kDepth;
  while (open > 0) {
    if (sending && seconds_since(start) >= opt.seconds) sending = false;
    if (seconds_since(start) > opt.seconds + 60.0) throw std::runtime_error("daemon stopped answering");
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c) fds[c] = {session.conns[c]->fd(), POLLIN, 0};
    if (::poll(fds, kConnections, 100) <= 0) continue;
    for (std::size_t c = 0; c < kConnections; ++c) {
      if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::vector<std::string> lines = session.conns[c]->receive();
      const Clock::time_point now = Clock::now();
      for (const std::string& line : lines) {
        const obs::json::Value r = parse_response(line);
        const auto it = inflight[c].find(r.string_at("id"));
        if (it == inflight[c].end()) {
          out.record(false, "response with an unknown id: " + r.string_at("id"));
          continue;
        }
        const InFlight f = it->second;
        inflight[c].erase(it);
        --open;
        const double rt = std::chrono::duration<double>(now - f.sent).count();
        const int code = static_cast<int>(r.number_at("code", -1));
        if (code == 7) ++shed;
        const Loss l = loss_of(r);
        std::string why;
        if (code != 0) why = "code " + std::to_string(code);
        else if (f.hot >= 0 && (!l.hit || l.estimate != session.hot_estimates[static_cast<std::size_t>(f.hot)]))
          why = "hit differs from the miss that filled it";
        else if (f.hot < 0 && l.hit) why = "fresh cell served from the cache";
        out.record(why.empty(), "query " + r.string_at("id") + ": " + why);
        const auto window = static_cast<std::size_t>(std::chrono::duration<double>(now - start).count() / kWindow);
        if (window < windows) (f.hot >= 0 ? hit_rt : miss_rt)[window].push_back(rt);
        if (sending) {
          send_next(c);
          ++open;
        }
      }
    }
  }
  // Daemon CPU over the timed phase, per query answered in it.
  const double daemon_cpu = session.daemon->cpu_seconds() - cpu0;
  const std::size_t timed = out.attempted;
  Connection& first = *session.conns.front();
  first.send("{\"id\": \"stats\", \"op\": \"stats\"}");
  const obs::json::Value stats = parse_response(first.receive_one());
  session.conns.clear();
  const ChildExit exit = session.daemon->stop();
  if (exit.code != 0) out.problems.push_back("daemon exited " + std::to_string(exit.code) + " on SIGTERM");

  std::vector<double> per_window_rate;
  for (std::size_t w = 0; w < windows; ++w)
    per_window_rate.push_back(static_cast<double>(hit_rt[w].size() + miss_rt[w].size()) / kWindow);
  const std::size_t hit_count = sample_count(hit_rt), miss_count = sample_count(miss_rt);
  out.add("setup_s", median(setups), "s", setups.size(), MetricKind::kEndToEnd);
  out.add("cpu_ms_per_op", daemon_cpu * 1e3 / static_cast<double>(timed), "ms", timed,
          MetricKind::kEndToEnd);
  out.add("peak_rss_mb", exit.max_rss_mb, "MB", 1, MetricKind::kEndToEnd);
  out.add("hit_p50_us", windowed_quantile(hit_rt, 0.5) * 1e6, "us", hit_count, MetricKind::kInfo);
  out.add("hit_p99_us", windowed_quantile(hit_rt, 0.99) * 1e6, "us", hit_count, MetricKind::kInfo);
  out.add("miss_p50_ms", windowed_quantile(miss_rt, 0.5) * 1e3, "ms", miss_count, MetricKind::kInfo);
  out.add("miss_p90_ms", windowed_quantile(miss_rt, 0.9) * 1e3, "ms", miss_count, MetricKind::kInfo);
  out.add("queries_per_s", median(per_window_rate), "1/s", hit_count + miss_count,
          MetricKind::kInfo);
  if (const auto* cache = stats.find("cache")) {
    const double hits = cache->number_at("hits"), misses = cache->number_at("misses");
    out.add("runtime.cache_hit_ratio", hits / std::max(hits + misses, 1.0), "ratio",
            static_cast<std::size_t>(hits + misses), MetricKind::kInfo);
  }
  if (const auto* wait = stats.find("queue_wait"))
    out.add("serve.queue_wait_p99_ms", wait->number_at("p99_ms", NAN), "ms",
            static_cast<std::size_t>(wait->number_at("count")), MetricKind::kInfo);
  out.add("serve.shed", static_cast<double>(shed), "count", out.attempted, MetricKind::kInfo);

  if (opt.trace) measure_layers(opt, hot, 3, out);
  return out;
}

}  // namespace lrd::perfbench
