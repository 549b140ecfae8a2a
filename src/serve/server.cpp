#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_map>

#include <cmath>

#include "core/failpoint.hpp"
#include "obs/bundle.hpp"
#include "obs/context.hpp"
#include "obs/eventlog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lrd::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Query lines longer than this without a newline are a protocol error
/// (a well-formed query is a few hundred bytes); the connection is
/// answered with an error and closed instead of buffering unboundedly.
constexpr std::size_t kMaxLineBytes = 1 << 20;

obs::Counter& queries_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_serve_queries_total", "Query lines received by the serve daemon (including shed)");
  return c;
}
obs::Counter& shed_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_serve_shed_total", "Queries rejected by admission control (response code 7)");
  return c;
}
obs::Histogram& latency_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "lrd_serve_query_seconds", "Admission-to-response latency of served queries");
  return h;
}
obs::Histogram& queue_wait_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "lrd_serve_queue_wait_seconds", "Admission-to-worker-pickup wait of served queries");
  return h;
}
obs::Gauge& queue_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "lrd_serve_queue_depth", "Admitted queries waiting for a worker");
  return g;
}
obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "lrd_serve_connections", "Client connections currently open");
  return g;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// One client. The fd is closed exactly once, by the destructor of the
/// last shared_ptr owner, so a worker thread finishing a query can never
/// write into a descriptor number the kernel has recycled.
struct Server::Connection {
  int fd = -1;
  std::mutex write_mu;
  std::string read_buf;
  std::atomic<bool> closed{false};

  explicit Connection(int f) : fd(f) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(const ServerConfig& cfg, const QueryService& service)
    : cfg_(cfg), service_(service) {
  // Touch every serve metric so snapshots carry them even at zero — the
  // CI smoke asserts presence, not just growth.
  queries_counter();
  shed_counter();
  latency_histogram();
  queue_wait_histogram();
  queue_gauge();
  connections_gauge();
}

Server::~Server() {
  if (started_) {
    request_stop();
    wait();
  }
}

lrd::Status Server::start() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.socket_path.empty() || cfg_.socket_path.size() >= sizeof addr.sun_path) {
    return lrd::Status::failure(lrd::make_diagnostics(
        lrd::ErrorCategory::kInvalidConfig, "serve.server",
        "socket path is non-empty and fits sockaddr_un",
        "socket path \"" + cfg_.socket_path + "\" has " +
            std::to_string(cfg_.socket_path.size()) + " bytes; limit is " +
            std::to_string(sizeof addr.sun_path - 1)));
  }
  std::memcpy(addr.sun_path, cfg_.socket_path.c_str(), cfg_.socket_path.size() + 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return lrd::Status::failure(lrd::make_diagnostics(
        lrd::ErrorCategory::kIo, "serve.server", "socket() succeeds",
        std::string("socket: ") + std::strerror(errno)));
  ::unlink(cfg_.socket_path.c_str());  // stale socket from a killed daemon
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return lrd::Status::failure(
        lrd::make_diagnostics(lrd::ErrorCategory::kIo, "serve.server", "bind/listen succeeds",
                              "cannot serve on " + cfg_.socket_path + ": " + why));
  }
  set_nonblocking(listen_fd_);
  if (::pipe(wake_fds_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return lrd::Status::failure(lrd::make_diagnostics(
        lrd::ErrorCategory::kIo, "serve.server", "self-pipe creation succeeds",
        std::string("pipe: ") + std::strerror(errno)));
  }
  set_nonblocking(wake_fds_[0]);

  started_ = true;
  io_thread_ = std::thread([this] { io_loop(); });
  const std::size_t n = cfg_.threads == 0 ? 1 : cfg_.threads;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
  return lrd::Status::ok();
}

void Server::request_drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
  }
  queue_cv_.notify_all();
  if (wake_fds_[1] >= 0) [[likely]] {
    const char byte = 'w';
    (void)!::write(wake_fds_[1], &byte, 1);
  }
}

void Server::request_stop() {
  cancel_.cancel();  // in-flight solves return wide brackets at the next check block
  request_drain();
}

std::uint64_t Server::queries_seen() const noexcept { return seen_.load(); }
std::uint64_t Server::queries_shed() const noexcept { return shed_.load(); }

void Server::wait() {
  if (!started_) return;
  if (io_thread_.joinable()) io_thread_.join();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ::unlink(cfg_.socket_path.c_str());
  started_ = false;
}

void Server::write_response(const std::shared_ptr<Connection>& conn, const Response& r) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  const core::FailAction fault = core::failpoint_hit("serve.write");
  if (fault.io_error()) {
    conn->closed.store(true, std::memory_order_relaxed);
    return;
  }
  const std::string line = r.to_json() + "\n";
  std::lock_guard<std::mutex> lock(conn->write_mu);
  std::size_t off = 0;
  while (off < line.size()) {
    // MSG_NOSIGNAL: a client that hung up yields EPIPE, not process death.
    const ssize_t n = ::send(conn->fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EINTR)) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Client-fd writes are blocking in practice (only the listener and
      // wake pipe are nonblocking), but be safe: brief retry.
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    conn->closed.store(true, std::memory_order_relaxed);  // EPIPE etc.
    return;
  }
}

void Server::admit_or_shed(const std::shared_ptr<Connection>& conn, std::string line) {
  seen_.fetch_add(1, std::memory_order_relaxed);
  queries_counter().inc();
  // Minted at admission: the id every artifact this query touches —
  // flight events, access record, spans, profile samples, the response
  // itself — joins on. The scope covers the admission-path records
  // below; the worker re-enters it from Task::query_id.
  const obs::QueryId qid = obs::mint_query_id();
  obs::QueryScope qscope(qid);
  bool shed = false;
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
    if (depth >= cfg_.queue_limit) shed = true;
    else {
      queue_.push_back(Task{conn, std::move(line), Clock::now(), qid});
      depth = queue_.size();
      queue_gauge().set(static_cast<double>(depth));
    }
  }
  if (shed) {
    // Shed BEFORE solving anything: the rejection costs one JSON peek for
    // the id echo, never a solve. The failpoint lets the torture harness
    // delay or crash the daemon at this exact decision.
    core::failpoint_hit("serve.shed");
    shed_.fetch_add(1, std::memory_order_relaxed);
    shed_counter().inc();
    obs::instant("serve.shed", "serve");
    const std::string id = peek_id(line);
    obs::flight::record(obs::flight::EventKind::kQueryShed, id, depth);
    if (obs::EventLog::global().active()) {
      obs::AccessRecord rec;
      rec.tool = "lrdq_serve";
      rec.id = id;
      rec.op = "solve";
      rec.status = query_status_name(QueryStatus::kShed);
      rec.code = kShedCode;
      rec.diagnostic = "rejected by admission control at queue depth " + std::to_string(depth);
      obs::EventLog::global().append(rec);
    }
    Response r = shed_response(id);
    r.query_id = qid;
    write_response(conn, r);
    obs::bundle::dump_incident("shed");
    return;
  }
  obs::flight::record(obs::flight::EventKind::kQueryAdmitted, "", depth);
  queue_cv_.notify_one();
}

void Server::handle_readable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  for (;;) {
    const core::FailAction fault = core::failpoint_hit("serve.read");
    const ssize_t n =
        fault.io_error() ? -1 : ::read(conn->fd, buf, sizeof buf);
    if (n > 0) {
      conn->read_buf.append(buf, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = conn->read_buf.find('\n')) != std::string::npos) {
        std::string line = conn->read_buf.substr(0, nl);
        conn->read_buf.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty()) admit_or_shed(conn, std::move(line));
      }
      if (conn->read_buf.size() > kMaxLineBytes) {
        write_response(conn, error_response("", lrd::make_diagnostics(
                                                    lrd::ErrorCategory::kParse, "serve.server",
                                                    "query lines are newline-terminated",
                                                    "line exceeds " +
                                                        std::to_string(kMaxLineBytes) +
                                                        " bytes without a newline")));
        conn->closed.store(true, std::memory_order_relaxed);
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;  // drained for now
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK) && !fault.io_error()) return;
    if (n < 0 && errno == EINTR && !fault.io_error()) continue;
    // EOF or error: the peer is gone. Workers still holding this
    // connection will see `closed` and skip their writes.
    conn->closed.store(true, std::memory_order_relaxed);
    return;
  }
}

void Server::io_loop() {
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  for (;;) {
    bool draining_now;
    {
      std::lock_guard<std::mutex> lock(mu_);
      draining_now = draining_;
    }
    if (draining_now) break;

    std::vector<pollfd> fds;
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back(pollfd{fd, POLLIN, 0});

    if (::poll(fds.data(), fds.size(), 200) < 0 && errno != EINTR) break;

    if (fds[0].revents & POLLIN) {  // wake pipe: just drain it
      char sink[64];
      while (::read(wake_fds_[0], sink, sizeof sink) > 0) {}
    }

    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (core::failpoint_hit("serve.accept").io_error()) {
          ::close(fd);
          continue;
        }
        obs::instant("serve.accept", "serve");
        conns.emplace(fd, std::make_shared<Connection>(fd));
      }
    }

    for (std::size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const auto it = conns.find(fds[i].fd);
      if (it == conns.end()) continue;
      handle_readable(it->second);
      if (it->second->closed.load(std::memory_order_relaxed)) conns.erase(it);
    }
    connections_gauge().set(static_cast<double>(conns.size()));
  }

  // Drain: no more accepts or reads; admitted queries run to completion
  // and their responses are written before any connection is torn down.
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    workers_quit_ = true;
  }
  queue_cv_.notify_all();
  conns.clear();  // last owners outside the workers; destructors close the fds
  connections_gauge().set(0.0);
}

void Server::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return !queue_.empty() || workers_quit_; });
      if (queue_.empty()) return;  // workers_quit_ and nothing left
      task = std::move(queue_.front());
      queue_.pop_front();
      queue_gauge().set(static_cast<double>(queue_.size()));
      ++in_flight_;
    }
    {
      // Re-enter the correlation scope minted at admission: the solve,
      // its cache lookups, the span tree and any profiler samples taken
      // on this thread all stamp this query's id.
      obs::QueryScope qscope(task.query_id);
      const Clock::time_point t0 = Clock::now();
      const double queue_s = std::chrono::duration<double>(t0 - task.admitted).count();
      queue_wait_histogram().observe(queue_s);
      obs::flight::record(obs::flight::EventKind::kQueryStarted, "", 0,
                          static_cast<std::uint64_t>(queue_s * 1e6));
      obs::Span span("serve.query", "serve");
      const Response r = service_.execute_line(task.line, &cancel_);
      write_response(task.conn, r);
      const double wall_ms =
          std::chrono::duration<double, std::milli>(Clock::now() - task.admitted).count();
      latency_histogram().observe(wall_ms / 1e3);
      obs::flight::record(obs::flight::EventKind::kQueryFinished, r.id,
                          static_cast<std::uint64_t>(r.code()),
                          static_cast<std::uint64_t>(queue_s * 1e6), wall_ms);
      if (obs::EventLog::global().active()) {
        obs::AccessRecord rec;
        rec.tool = "lrdq_serve";
        rec.id = r.id;
        rec.op = r.op;
        rec.status = query_status_name(r.status);
        rec.code = r.code();
        rec.wall_ms = wall_ms;
        rec.queue_ms = queue_s * 1e3;
        rec.cache_hit = r.cache_hit;
        rec.cache_tier = r.cache_tier == CacheTier::kMemory ? "memory"
                         : r.cache_tier == CacheTier::kDisk ? "disk"
                                                            : "none";
        rec.bracket_width = std::isnan(r.relative_gap) ? 0.0 : r.relative_gap;
        rec.diagnostic = r.diagnostic;
        obs::EventLog::global().append(rec);
      }
      if (r.status == QueryStatus::kDeadlineExceeded)
        obs::bundle::dump_incident("deadline_exceeded");
    }
    task.conn.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    queue_cv_.notify_all();  // the drain-waiter checks queue.empty && in_flight==0
  }
}

}  // namespace lrd::serve
