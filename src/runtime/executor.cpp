#include "runtime/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lrd::runtime {

namespace {

using obs::seconds_since;

/// How far the pool may grow, whatever thread count a caller asks for.
constexpr std::size_t kMaxWorkers = 256;

obs::Counter& jobs_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_executor_jobs_total", "parallel_for jobs completed (including serial fallbacks)");
  return c;
}
obs::Counter& tasks_counter() {
  static obs::Counter& c = obs::Registry::global().counter("lrd_executor_tasks_total",
                                                           "Task indices executed by the executor");
  return c;
}
obs::Gauge& workers_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge("lrd_executor_workers",
                                                       "Worker threads alive in the pool");
  return g;
}
obs::Histogram& job_seconds_histogram() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "lrd_executor_job_seconds", "Wall time per parallel_for job");
  return h;
}

/// True while the current thread is executing inside a worker loop; used
/// to run nested parallel_for calls inline instead of deadlocking on the
/// single in-flight job slot.
thread_local bool t_inside_worker = false;

}  // namespace

struct Executor::Impl {
  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t participants = 0;

    std::atomic<std::size_t> next{0};    // the shared cursor: next unclaimed index
    std::atomic<std::size_t> active{0};  // pool participants still running
    std::atomic<std::size_t> executed{0};
    CancellationToken cancel;

    std::mutex error_mu;
    std::exception_ptr error;

    std::vector<double> busy_seconds;  // slot w written only by participant w
    bool done = false;  // guarded by Impl::mu
  };

  std::vector<std::thread> workers;       // guarded by mu
  std::mutex mu;
  std::condition_variable cv_work;        // workers: a new job is available
  std::condition_variable cv_state;       // submitters: job done / slot free
  std::shared_ptr<Job> job;               // in-flight job (one at a time)
  std::uint64_t job_seq = 0;
  bool stop = false;
  JobStats last_stats;                    // guarded by mu

  /// One participant's share of a job: claim the next index off the
  /// shared cursor and run it until the cursor passes n or the job is
  /// cancelled. Pool workers and the inline path both run this loop.
  static void run_participant(Job& j, std::size_t w) {
    double busy = 0.0;
    for (;;) {
      if (j.cancel.cancelled()) break;
      const std::size_t idx = j.next.fetch_add(1, std::memory_order_relaxed);
      if (idx >= j.n) break;
      const auto t0 = obs::now();
      try {
        obs::Span task_span("executor.task", "executor");
        task_span.annotate("index", idx);
        (*j.fn)(idx);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(j.error_mu);
          if (!j.error) j.error = std::current_exception();
        }
        j.cancel.cancel();
      }
      busy += seconds_since(t0);
      j.executed.fetch_add(1, std::memory_order_relaxed);
    }
    j.busy_seconds[w] = busy;
  }

  void worker_loop(std::size_t w) {
    t_inside_worker = true;
    obs::set_thread_name("lrd-worker-" + std::to_string(w));
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> j;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv_work.wait(lock, [&] { return stop || (job && job_seq != seen); });
        if (stop) return;
        seen = job_seq;
        j = job;
      }
      if (w >= j->participants) continue;
      run_participant(*j, w);
      // acq_rel: the last participant's decrement observes every earlier
      // one, so the submitter reading after `done` sees all slot writes.
      if (j->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(mu);
        j->done = true;
        cv_state.notify_all();
      }
    }
  }

  /// Grows the pool to at least `count` workers. Caller holds `mu`.
  void ensure_workers(std::size_t count) {
    while (workers.size() < count) {
      const std::size_t w = workers.size();
      workers.emplace_back([this, w] { worker_loop(w); });
    }
    workers_gauge().set(static_cast<double>(workers.size()));
  }
};

Executor::Executor() : impl_(std::make_unique<Impl>()) {}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv_work.notify_all();
  for (auto& th : impl_->workers) th.join();
}

Executor& Executor::global() {
  static Executor executor;
  return executor;
}

JobStats Executor::last_job_stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->last_stats;
}

void Executor::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                            std::size_t threads) {
  if (n == 0) return;
  std::size_t p = threads;
  if (p == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    p = hw == 0 ? 1 : hw;
  }
  // A nested call runs inline: it must not wait on the job slot its own
  // job already occupies.
  const bool nested = t_inside_worker;
  p = nested ? 1 : std::min({p, n, kMaxWorkers});

  obs::Span job_span("executor.job", "executor");
  job_span.annotate("n", n, "participants", p);

  auto job = std::make_shared<Impl::Job>();
  job->n = n;
  job->fn = &fn;
  job->participants = p;
  job->active.store(p, std::memory_order_relaxed);
  job->busy_seconds.assign(p, 0.0);
  const auto start = obs::now();

  if (p == 1) {
    Impl::run_participant(*job, 0);
  } else {
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->ensure_workers(p);
      // One job in flight at a time; concurrent submitters queue here.
      impl_->cv_state.wait(lock, [&] { return impl_->job == nullptr; });
      impl_->job = job;
      ++impl_->job_seq;
    }
    impl_->cv_work.notify_all();
    {
      std::unique_lock<std::mutex> lock(impl_->mu);
      impl_->cv_state.wait(lock, [&] { return job->done; });
      impl_->job = nullptr;
    }
    impl_->cv_state.notify_all();  // wake any queued submitter
  }

  const double wall = seconds_since(start);
  const std::size_t executed = job->executed.load(std::memory_order_relaxed);
  if (!nested) {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->last_stats = {p, executed, wall, job->busy_seconds};
  }
  jobs_counter().inc();
  tasks_counter().inc(executed);
  job_seconds_histogram().observe(wall);

  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace lrd::runtime
