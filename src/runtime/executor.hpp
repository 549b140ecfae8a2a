// Persistent shared-cursor executor for the experiment sweeps.
//
// The figure surfaces are grids of independent solves whose per-cell cost
// is heavy-tailed (cells near rho -> 1 or at large cutoff lags take orders
// of magnitude longer than their neighbours), so a static block partition
// leaves most workers idle while one grinds the expensive corner. Each job
// instead keeps one atomic cursor: every participant claims the next
// unstarted index with a fetch_add until the cursor passes n, so a worker
// that finishes early simply claims more, and cells start in ascending
// index order at any thread count.
//
// Error contract (shared with numerics::parallel_for, which delegates
// here): the first exception thrown by a task is captured and rethrown on
// the submitting thread after the job winds down; the job's cancellation
// token is set at the moment of capture, so participants skip every task
// they have not yet claimed instead of grinding through the rest.
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
  std::size_t tasks = 0;         ///< Tasks run, a throwing one included (== n unless cancelled).
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
  Executor();
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Process-wide shared pool (lazily constructed, grows on demand).
  static Executor& global();

  /// Invokes fn(i) for every i in [0, n) across up to `threads` workers
  /// (0 = hardware concurrency). Tasks must be safe to run concurrently
  /// for distinct i. The first exception a task throws cancels all tasks
  /// not yet started and is rethrown here once the job winds down.
  /// threads <= 1, and a call from inside a worker thread (which must not
  /// wait on the job slot it occupies), run the same task loop inline on
  /// the caller, so the contract is identical: the throw stops the loop.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                    std::size_t threads = 0);

  /// Accounting for the most recent top-level parallel_for (an inline run
  /// reports one participant; nested calls leave it untouched).
  JobStats last_job_stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace lrd::runtime
