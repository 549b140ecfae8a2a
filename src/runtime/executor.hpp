// Persistent work-stealing executor for the experiment sweeps.
//
// The figure surfaces are grids of independent solves whose per-cell cost
// is heavy-tailed (cells near rho -> 1 or at large cutoff lags take orders
// of magnitude longer than their neighbours), so a static block partition
// leaves most workers idle while one grinds the expensive corner. The
// executor keeps one deque of index ranges per worker: an owner pops
// single indices off the back of its own deque, an idle worker steals
// half of a victim's remaining items off the front. Work only ever
// shrinks (ranges split, never grow), which keeps termination detection
// simple and the whole scheduler free of lock-order cycles: no thread
// ever holds two deque mutexes at once.
//
// Error contract (shared with numerics::parallel_for, which delegates
// here): the first exception thrown by a task is captured and rethrown on
// the submitting thread after the job winds down; the job's cancellation
// token is set at the moment of capture, so workers skip all tasks they
// have not yet started instead of grinding through their partitions.
//
// The pool is lazy: no threads exist until the first parallel job, and
// the pool grows on demand when a caller asks for more workers than have
// been spawned (oversubscription is deliberate — `--threads 8` means
// eight OS threads regardless of the machine).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace lrd::runtime {

/// Cooperative cancellation flag shared by the tasks of one job. Tasks
/// already running are never interrupted; tasks not yet started are
/// skipped once the flag is set.
class CancellationToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

/// Aggregate accounting of the most recently completed parallel job —
/// the raw material of the per-run manifest's worker-utilization section.
struct JobStats {
  std::size_t participants = 0;  ///< Workers that took part in the job.
  std::size_t tasks = 0;         ///< Tasks actually executed (== n unless cancelled).
  std::size_t steals = 0;        ///< Successful steal-half operations.
  double wall_seconds = 0.0;     ///< Submit-to-completion wall time.
  /// Per-participant time spent inside task bodies; utilization is
  /// sum(busy_seconds) / (participants * wall_seconds).
  std::vector<double> busy_seconds;

  double busy_total() const noexcept {
    double s = 0.0;
    for (double b : busy_seconds) s += b;
    return s;
  }
  /// Fraction of the job's worker-time spent inside tasks (0 when idle).
  double utilization() const noexcept {
    return participants == 0 || wall_seconds <= 0.0
               ? 0.0
               : busy_total() / (static_cast<double>(participants) * wall_seconds);
  }
};

class Executor {
 public:
  /// `max_workers` caps how far the pool may grow (0 = default cap).
  explicit Executor(std::size_t max_workers = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Process-wide shared pool (lazily constructed, grows on demand).
  static Executor& global();

  /// Invokes fn(i) for every i in [0, n) across up to `threads` workers
  /// (0 = hardware concurrency). Tasks must be safe to run concurrently
  /// for distinct i. The first exception a task throws cancels all tasks
  /// not yet started and is rethrown here once the job winds down.
  /// Serial fallbacks (threads <= 1, or a call from inside a worker
  /// thread, which runs inline to avoid deadlock) preserve the same
  /// contract: the throw stops the loop immediately.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t threads = 0);

  /// Workers spawned so far (grows on demand, starts at 0).
  std::size_t worker_count() const;

  /// Accounting for the most recent parallel_for (including the serial
  /// fallback path, which reports one participant and zero steals).
  JobStats last_job_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lrd::runtime
