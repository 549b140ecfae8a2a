// Unix-domain-socket front end of the loss-rate query daemon.
//
// Threading model: one I/O thread owns the listening socket and every
// client fd (poll loop: accept, read, buffer-split into query lines);
// `threads` worker threads execute queries through the shared
// QueryService and write responses back. Responses are written directly
// by the worker that finished the query, under a per-connection write
// mutex, so one slow solve never blocks the I/O thread and responses to
// pipelined queries arrive in completion order (match them by "id").
// Only the connection's owning shared_ptr closes the fd, so a worker
// can never write into a recycled descriptor.
//
// Admission control: parsed-off query lines go into a bounded queue
// (`queue_limit`). When the queue is full the I/O thread rejects the
// query immediately with status "shed" / code 7 — it never blocks the
// poll loop and never buffers unboundedly; `lrd_serve_shed_total`
// counts the rejections. Queries already admitted always get a
// response.
//
// Drain: request_drain() (the SIGTERM path — signal handlers just set a
// flag; the poll loop notices) closes the listener, stops reading new
// queries, lets the workers finish everything already admitted, writes
// those responses, then closes the remaining connections and returns
// from wait(). request_stop() is the hard variant: it also cancels the
// shared CancellationToken, so in-flight solves return their
// valid-but-wide brackets at the next check block ("cancelled",
// code 6) instead of running to completion.
//
// Failpoint sites (torture harness): serve.accept, serve.read,
// serve.write (io_error = treat the connection as gone; delay = slow
// I/O), serve.shed (delay/crash at the rejection decision).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>
#include <condition_variable>

#include "core/status.hpp"
#include "runtime/executor.hpp"
#include "serve/service.hpp"

namespace lrd::serve {

struct ServerConfig {
  std::string socket_path;
  /// Worker threads executing queries (>= 1).
  std::size_t threads = 2;
  /// Admitted-but-not-yet-running queries tolerated before shedding.
  std::size_t queue_limit = 64;
};

class Server {
 public:
  /// Non-owning service reference; the service (and its cache) must
  /// outlive the server.
  Server(const ServerConfig& cfg, const QueryService& service);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (removing a stale file at that path), spawns the
  /// I/O and worker threads. kIo diagnostics on bind/listen failure.
  lrd::Status start();

  /// Graceful: stop accepting, finish admitted queries, then shut down.
  void request_drain();
  /// Hard: drain plus cancellation of in-flight solves.
  void request_stop();

  /// Blocks until the server has fully shut down (someone must call
  /// request_drain()/request_stop(), e.g. from a signal handler flag).
  void wait();

  std::uint64_t queries_seen() const noexcept;
  std::uint64_t queries_shed() const noexcept;

 private:
  struct Connection;
  struct Task {
    std::shared_ptr<Connection> conn;
    std::string line;
    /// Admission instant; queue wait = worker pickup minus this.
    std::chrono::steady_clock::time_point admitted;
    /// Correlation id minted at admission (obs::QueryId); the worker
    /// re-enters this scope so every artifact the query touches joins.
    std::uint64_t query_id = 0;
  };

  void io_loop();
  void worker_loop();
  void handle_readable(const std::shared_ptr<Connection>& conn);
  void admit_or_shed(const std::shared_ptr<Connection>& conn, std::string line);
  static void write_response(const std::shared_ptr<Connection>& conn, const Response& r);

  ServerConfig cfg_;
  const QueryService& service_;
  int listen_fd_ = -1;
  /// Self-pipe: request_drain()/request_stop() write one byte so the
  /// poll loop wakes immediately instead of at the next timeout.
  int wake_fds_[2] = {-1, -1};

  std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Task> queue_;
  std::size_t in_flight_ = 0;
  bool draining_ = false;
  bool workers_quit_ = false;

  runtime::CancellationToken cancel_;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> shed_{0};

  std::thread io_thread_;
  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace lrd::serve
