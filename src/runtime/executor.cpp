#include "runtime/executor.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lrd::runtime {

namespace {

using obs::seconds_since;

constexpr std::size_t kDefaultMaxWorkers = 256;

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
obs::Counter& steals_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_executor_steals_total", "Successful steals between worker deques");
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

/// Half-open index range [begin, end). Deques hold disjoint ranges; the
/// union of every deque's ranges is exactly the set of unstarted tasks.
struct Range {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const noexcept { return end - begin; }
};

/// True while the current thread is executing inside a worker loop; used
/// to run nested parallel_for calls inline instead of deadlocking on the
/// single in-flight job slot.
thread_local bool t_inside_worker = false;

}  // namespace

struct Executor::Impl {
  struct WorkerDeque {
    std::mutex mu;
    std::deque<Range> ranges;
    std::size_t items = 0;  // total indices across `ranges`
  };

  struct Job {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t participants = 0;
    std::vector<std::unique_ptr<WorkerDeque>> deques;  // one per participant

    std::atomic<std::size_t> active{0};  // participants still running
    std::atomic<std::size_t> executed{0};
    std::atomic<std::size_t> steals{0};
    CancellationToken cancel;

    std::mutex error_mu;
    std::exception_ptr error;

    std::vector<double> busy_seconds;  // slot w written only by participant w
    std::chrono::steady_clock::time_point start;
    bool done = false;  // guarded by Impl::mu
  };

  std::size_t max_workers;
  std::vector<std::thread> workers;       // guarded by mu
  std::mutex mu;
  std::condition_variable cv_work;        // workers: a new job is available
  std::condition_variable cv_state;       // submitters: job done / slot free
  std::shared_ptr<Job> job;               // in-flight job (one at a time)
  std::uint64_t job_seq = 0;
  bool stop = false;
  JobStats last_stats;                    // guarded by mu

  /// Pops one index off the back of `d` (LIFO end, owner side).
  static bool pop_own(WorkerDeque& d, std::size_t& idx) {
    std::lock_guard<std::mutex> lock(d.mu);
    if (d.items == 0) return false;
    Range& back = d.ranges.back();
    idx = back.begin++;
    --d.items;
    if (back.begin == back.end) d.ranges.pop_back();
    return true;
  }

  /// Steals half of some victim's items (front side, oldest ranges first)
  /// into worker w's own deque. Never holds two deque mutexes at once:
  /// the stolen ranges are invisible to other scanners for the instant
  /// between the two critical sections, which can at worst make an idle
  /// worker retire early — never lose or duplicate an index.
  static bool steal_some(Job& job, std::size_t w) {
    const std::size_t p = job.participants;
    for (int attempt = 0; attempt < 2; ++attempt) {
      for (std::size_t off = 1; off < p; ++off) {
        auto& victim = *job.deques[(w + off) % p];
        std::vector<Range> got;
        {
          std::lock_guard<std::mutex> lock(victim.mu);
          if (victim.items == 0) continue;
          std::size_t want = (victim.items + 1) / 2;  // steal-half, at least 1
          while (want > 0) {
            Range r = victim.ranges.front();
            victim.ranges.pop_front();
            if (r.size() <= want) {
              want -= r.size();
              victim.items -= r.size();
              got.push_back(r);
            } else {
              got.push_back({r.begin, r.begin + want});
              victim.ranges.push_front({r.begin + want, r.end});
              victim.items -= want;
              want = 0;
            }
          }
        }
        auto& self = *job.deques[w];
        std::lock_guard<std::mutex> lock(self.mu);
        for (const Range& r : got) {
          self.ranges.push_back(r);
          self.items += r.size();
        }
        job.steals.fetch_add(1, std::memory_order_relaxed);
        steals_counter().inc();
        obs::instant("executor.steal", "executor", "thief", w);
        return true;
      }
      std::this_thread::yield();
    }
    return false;
  }

  /// One participant's share of a job: drain own deque, steal when empty,
  /// retire when no work is visible anywhere or the job is cancelled.
  void run_participant(Job& j, std::size_t w) {
    double busy = 0.0;
    for (;;) {
      if (j.cancel.cancelled()) break;
      std::size_t idx;
      if (!pop_own(*j.deques[w], idx)) {
        if (!steal_some(j, w)) break;
        continue;
      }
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
    // acq_rel: the last participant's decrement observes every earlier
    // one, so the submitter reading after `done` sees all slot writes.
    if (j.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu);
      j.done = true;
      cv_state.notify_all();
    }
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
      if (w < j->participants) run_participant(*j, w);
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

Executor::Executor(std::size_t max_workers) : impl_(std::make_unique<Impl>()) {
  impl_->max_workers = max_workers == 0 ? kDefaultMaxWorkers : max_workers;
}

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

std::size_t Executor::worker_count() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->workers.size();
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
  p = std::min({p, n, impl_->max_workers});

  obs::Span job_span("executor.job", "executor");
  job_span.annotate("n", n, "participants", p);

  if (p <= 1 || t_inside_worker) {
    // Serial fallback (and nested calls from task bodies, which must not
    // wait on the single job slot they already occupy). A throw stops
    // the loop at once — the same skip-the-rest contract as the pool.
    const auto t0 = obs::now();
    double busy = 0.0;
    std::size_t executed = 0;
    try {
      for (std::size_t i = 0; i < n; ++i) {
        const auto s0 = obs::now();
        fn(i);
        busy += seconds_since(s0);
        ++executed;
      }
    } catch (...) {
      tasks_counter().inc(executed);
      if (!t_inside_worker) {
        std::lock_guard<std::mutex> lock(impl_->mu);
        impl_->last_stats = {1, executed, 0, seconds_since(t0), {busy}};
      }
      throw;
    }
    jobs_counter().inc();
    tasks_counter().inc(executed);
    job_seconds_histogram().observe(seconds_since(t0));
    if (!t_inside_worker) {
      std::lock_guard<std::mutex> lock(impl_->mu);
      impl_->last_stats = {1, executed, 0, seconds_since(t0), {busy}};
    }
    return;
  }

  auto job = std::make_shared<Impl::Job>();
  job->n = n;
  job->fn = &fn;
  job->participants = p;
  job->deques.reserve(p);
  for (std::size_t w = 0; w < p; ++w) {
    auto dq = std::make_unique<Impl::WorkerDeque>();
    const std::size_t begin = w * n / p;
    const std::size_t end = (w + 1) * n / p;
    if (begin < end) {
      dq->ranges.push_back({begin, end});
      dq->items = end - begin;
    }
    job->deques.push_back(std::move(dq));
  }
  job->active.store(p, std::memory_order_relaxed);
  job->busy_seconds.assign(p, 0.0);
  job->start = obs::now();

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
    impl_->last_stats = {p, job->executed.load(std::memory_order_relaxed),
                         job->steals.load(std::memory_order_relaxed),
                         seconds_since(job->start), job->busy_seconds};
  }
  impl_->cv_state.notify_all();  // wake any queued submitter

  jobs_counter().inc();
  tasks_counter().inc(job->executed.load(std::memory_order_relaxed));
  job_seconds_histogram().observe(seconds_since(job->start));

  if (job->error) std::rethrow_exception(job->error);
}

}  // namespace lrd::runtime
