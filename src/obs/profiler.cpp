#include "obs/profiler.hpp"

#include <csignal>
#include <cstdio>
#include <cstring>

#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/ring.hpp"

#if !defined(LRD_OBS_DISABLED)

#include <cxxabi.h>
#include <dlfcn.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace lrd::obs::profiler {

namespace {

/// Samples kept per thread. Tail semantics like the flight recorder:
/// older samples are overwritten, the crash dump gets the newest.
constexpr std::size_t kRingCapacity = 512;

/// Rings available process-wide; bounds concurrent sampling threads.
constexpr std::size_t kMaxRings = 32;

/// One ring per sampling thread, claimed by CAS on `tid` so a thread can
/// claim from inside its first SIGPROF. Single writer: the owning thread
/// (sample_now, or its own SIGPROF handler — never both at once, see
/// take_sample).
struct ProfRing {
  std::atomic<std::uint32_t> tid{0};  // 0 = unclaimed
  Ring<Sample, kRingCapacity> samples;
};

// Static storage (BSS): the signal handler can never allocate, and an
// unclaimed ring costs only untouched zero pages.
ProfRing g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_hwm{0};  // high-water mark, release-published
std::atomic<std::uint32_t> g_epoch{1};   // bumped by reset() to drop TLS claims
std::atomic<bool> g_running{false};
std::atomic<std::uint64_t> g_total{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_interval_us{0};

std::mutex g_ctl_mu;  // start/stop/reset only — never the sample path
struct sigaction g_prev_action;
bool g_timer_armed = false;

std::uint32_t current_tid() noexcept {
  return static_cast<std::uint32_t>(::syscall(SYS_gettid));
}

/// Claims a ring for the calling thread, lock-free (CAS on the tid
/// word) so it is safe on the first SIGPROF a thread ever takes.
/// Claims are permanent until reset(): with a fixed worker pool that
/// is exact; unbounded thread churn exhausts rings and drops samples.
int claim_ring() noexcept {
  const std::uint32_t tid = current_tid();
  for (std::size_t i = 0; i < kMaxRings; ++i) {
    std::uint32_t expected = 0;
    if (g_rings[i].tid.compare_exchange_strong(expected, tid,
                                               std::memory_order_acq_rel)) {
      std::size_t hwm = g_ring_hwm.load(std::memory_order_relaxed);
      while (hwm < i + 1 &&
             !g_ring_hwm.compare_exchange_weak(hwm, i + 1,
                                               std::memory_order_release)) {
      }
      return static_cast<int>(i);
    }
    if (expected == tid) return static_cast<int>(i);
  }
  return -1;
}

thread_local int t_ring = -1;
thread_local std::uint32_t t_epoch = 0;
thread_local bool t_pushing = false;  // this thread is mid-push on its ring

int local_ring() noexcept {
  const std::uint32_t epoch = g_epoch.load(std::memory_order_acquire);
  if (t_ring >= 0 && t_epoch == epoch) return t_ring;
  t_ring = claim_ring();
  t_epoch = epoch;
  return t_ring;
}

// ---- async-signal-safe stack capture -------------------------------
//
// glibc backtrace() must NEVER run on the sample path: its unwinder
// enters dl_iterate_phdr, whose rtld locks are pthread mutexes —
// not async-signal-safe. A SIGPROF landing while the same thread is
// mid-acquire (its own backtrace in sample_now, a C++ throw, a dlopen)
// wedges the lock word and every thread then parks on ld.so's futex
// forever. So the capture path is a raw frame-pointer walk: ucontext
// registers, msync-validated memory reads and atomics only. The build
// keeps frame pointers (-fno-omit-frame-pointer, root CMakeLists) so
// the chain is real in our own code; foreign FP-less frames just end
// the walk early — a truncated stack, never a deadlock.

std::atomic<std::uintptr_t> g_page_size{0};  // set by start()

/// True when [addr, addr+len) is mapped. msync(MS_ASYNC) is in the
/// POSIX async-signal-safe list and returns ENOMEM on unmapped ranges;
/// this is what makes dereferencing a candidate frame pointer safe
/// even when a leaf routine used RBP as a scratch register.
bool mapped(std::uint64_t addr, std::size_t len) noexcept {
  const std::uintptr_t page = g_page_size.load(std::memory_order_relaxed);
  if (page == 0) return false;
  const std::uintptr_t first = static_cast<std::uintptr_t>(addr) & ~(page - 1);
  const std::uintptr_t last =
      (static_cast<std::uintptr_t>(addr) + len - 1) & ~(page - 1);
  return ::msync(reinterpret_cast<void*>(first), last - first + page,
                 MS_ASYNC) == 0;
}

/// Longest plausible gap between adjacent frame records (and between
/// the interrupted SP and the first frame). Larger jumps mean the
/// "frame pointer" was data; stop rather than wander off the stack.
constexpr std::uint64_t kMaxFrameGap = std::uint64_t{1} << 20;

/// Walks the frame-pointer chain starting at (pc, fp) above `sp` and
/// publishes one sample. Async-signal-safe; also called directly by
/// sample_now() in normal context.
void take_sample(std::uint64_t pc, std::uint64_t fp, std::uint64_t sp) noexcept {
  const int saved_errno = errno;  // msync clobbers it on unmapped probes
  const int idx = local_ring();
  if (idx < 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample s;
  s.ts_us = process_uptime_us();
  s.qid = current_query_id();
  std::uint32_t depth = 0;
  if (pc >= 0x1000) s.pcs[depth++] = pc;
  std::uint64_t lo = sp;
  while (depth < kMaxFrames) {
    // A real frame record sits on this thread's stack: above everything
    // already walked, 8-byte aligned, within a plausible gap, mapped.
    if (fp < lo || fp - lo > kMaxFrameGap || (fp & 7) != 0) break;
    if (!mapped(fp, 16)) break;
    const std::uint64_t next = *reinterpret_cast<const std::uint64_t*>(fp);
    const std::uint64_t ret = *reinterpret_cast<const std::uint64_t*>(fp + 8);
    if (ret < 0x1000) break;  // saved RIP of the outermost frame is junk
    s.pcs[depth++] = ret;
    if (next <= fp) break;
    lo = fp + 16;
    fp = next;
  }
  if (depth == 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  s.depth = depth;

  // A SIGPROF landing inside sample_now()'s own push would interleave
  // two pushes on one ring; the handler's sample is dropped instead.
  if (t_pushing) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  t_pushing = true;
  std::atomic_signal_fence(std::memory_order_seq_cst);
  g_rings[idx].samples.push(s);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  t_pushing = false;
  g_total.fetch_add(1, std::memory_order_relaxed);
  errno = saved_errno;
}

void sigprof_handler(int, siginfo_t*, void* uctx) {
  if (!g_running.load(std::memory_order_relaxed)) return;
  if (uctx == nullptr) return;
  const auto* uc = static_cast<const ucontext_t*>(uctx);
#if defined(__x86_64__)
  take_sample(static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]),
              static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RBP]),
              static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RSP]));
#elif defined(__aarch64__)
  take_sample(uc->uc_mcontext.pc, uc->uc_mcontext.regs[29], uc->uc_mcontext.sp);
#else
  g_dropped.fetch_add(1, std::memory_order_relaxed);
#endif
}

// ---- flush-time formatting (not signal-safe) -----------------------

/// Blocks SIGPROF on the calling thread for the duration of a flush,
/// so a flush on a profiled thread does not pollute its own ring with
/// symbolization stacks. Other threads keep sampling throughout.
class ScopedSigprofBlock {
 public:
  ScopedSigprofBlock() noexcept {
    sigset_t block;
    sigemptyset(&block);
    sigaddset(&block, SIGPROF);
    blocked_ = ::pthread_sigmask(SIG_BLOCK, &block, &saved_) == 0;
  }
  ~ScopedSigprofBlock() {
    if (blocked_) ::pthread_sigmask(SIG_SETMASK, &saved_, nullptr);
  }
  ScopedSigprofBlock(const ScopedSigprofBlock&) = delete;
  ScopedSigprofBlock& operator=(const ScopedSigprofBlock&) = delete;

 private:
  sigset_t saved_{};
  bool blocked_ = false;
};

/// Fold separator and JSON metacharacters may appear in demangled C++
/// names; flatten them so stacks stay one-token-per-frame and lines
/// never need escaping.
void sanitize_frame(std::string& s) {
  for (char& c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u < 0x20 || u == 0x7f || c == ';' || c == '"' || c == '\\') c = '_';
  }
}

std::string symbolize(std::uint64_t pc) {
  // pc is a return address (points after the call); back up one byte
  // so the call site's own symbol wins at function boundaries.
  Dl_info info;
  const auto addr = reinterpret_cast<void*>(pc == 0 ? 0 : pc - 1);
  if (::dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    int status = -1;
    char* dem = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    std::string name = (status == 0 && dem != nullptr) ? dem : info.dli_sname;
    std::free(dem);
    sanitize_frame(name);
    return name;
  }
  char buf[2 + 16 + 1];
  std::snprintf(buf, sizeof buf, "0x%llx",
                static_cast<unsigned long long>(pc));
  return buf;
}

}  // namespace

bool start(const Options& opt) {
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  if (g_running.load(std::memory_order_relaxed)) return true;

  // Pin the page size (the walker's msync probes need it) and the
  // process uptime epoch before any sample reads them.
  g_page_size.store(static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE)),
                    std::memory_order_relaxed);
  (void)process_uptime_us();

  g_interval_us.store(opt.interval_us, std::memory_order_relaxed);
  g_running.store(true, std::memory_order_release);

  if (opt.interval_us > 0) {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = &sigprof_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    ::sigaction(SIGPROF, &sa, &g_prev_action);

    itimerval timer;
    timer.it_interval.tv_sec = opt.interval_us / 1000000;
    timer.it_interval.tv_usec = opt.interval_us % 1000000;
    timer.it_value = timer.it_interval;
    ::setitimer(ITIMER_PROF, &timer, nullptr);
    g_timer_armed = true;
  }
  return true;
}

void stop() {
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  if (!g_running.load(std::memory_order_relaxed)) return;
  if (g_timer_armed) {
    itimerval off;
    std::memset(&off, 0, sizeof off);
    ::setitimer(ITIMER_PROF, &off, nullptr);
    ::sigaction(SIGPROF, &g_prev_action, nullptr);
    g_timer_armed = false;
  }
  g_running.store(false, std::memory_order_release);
}

bool running() noexcept { return g_running.load(std::memory_order_relaxed); }

void sample_now() noexcept {
  if (!g_running.load(std::memory_order_relaxed)) return;
  // pc = the call site; the walk starts at the caller's frame record
  // (*own_fp) so the caller itself is not duplicated in the stack.
  std::uint64_t anchor = 0;  // a local: conservative stack-pointer bound
  const auto own_fp =
      reinterpret_cast<const std::uint64_t*>(__builtin_frame_address(0));
  take_sample(reinterpret_cast<std::uint64_t>(__builtin_return_address(0)),
              *own_fp, reinterpret_cast<std::uint64_t>(&anchor));
}

std::uint64_t total_samples() noexcept {
  return g_total.load(std::memory_order_relaxed);
}

std::uint64_t dropped() noexcept {
  return g_dropped.load(std::memory_order_relaxed);
}

std::string to_jsonl() {
  ScopedSigprofBlock no_self_samples;
  const std::uint64_t interval =
      g_interval_us.load(std::memory_order_relaxed);
  std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> folded;
  std::map<std::uint64_t, std::string> symbols;
  std::vector<Sample> buf(kRingCapacity);
  const std::size_t rings = ring_count();
  for (std::size_t i = 0; i < rings; ++i) {
    const std::size_t n = g_rings[i].samples.read_tail(buf.data(), buf.size());
    for (std::size_t k = 0; k < n; ++k) {
      const Sample& s = buf[k];
      std::string stack;
      // Root-first (main;...;leaf) — the flamegraph folding order.
      for (std::uint32_t f = s.depth; f-- > 0;) {
        auto it = symbols.find(s.pcs[f]);
        if (it == symbols.end())
          it = symbols.emplace(s.pcs[f], symbolize(s.pcs[f])).first;
        if (!stack.empty()) stack.push_back(';');
        stack += it->second;
      }
      if (stack.empty()) continue;
      folded[{s.qid, std::move(stack)}] += 1;
    }
  }
  std::string out;
  for (const auto& [key, count] : folded) {
    out += "{\"schema\": \"lrd-profile-v1\", \"query_id\": ";
    out += std::to_string(key.first);
    out += ", \"stack\": \"";
    out += key.second;
    out += "\", \"count\": ";
    out += std::to_string(count);
    out += ", \"interval_us\": ";
    out += std::to_string(interval);
    out += "}\n";
  }
  return out;
}

bool write_file(const std::string& path) { return write_file_atomic(path, to_jsonl()); }

void reset() {
  std::lock_guard<std::mutex> lock(g_ctl_mu);
  const std::size_t rings = g_ring_hwm.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < rings; ++i) {
    g_rings[i].samples.clear();
    g_rings[i].tid.store(0, std::memory_order_relaxed);
  }
  g_ring_hwm.store(0, std::memory_order_relaxed);
  g_total.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  // Invalidate every thread's cached ring index.
  g_epoch.fetch_add(1, std::memory_order_release);
}

std::size_t ring_count() noexcept {
  return g_ring_hwm.load(std::memory_order_acquire);
}

std::size_t read_ring(std::size_t i, Sample* out, std::size_t max_samples,
                      std::uint32_t* tid) noexcept {
  if (i >= ring_count() || out == nullptr || max_samples == 0) return 0;
  if (tid != nullptr) *tid = g_rings[i].tid.load(std::memory_order_relaxed);
  return g_rings[i].samples.read_tail(out, max_samples);
}

std::size_t format_sample_jsonl(const Sample& s, std::uint32_t tid, char* buf,
                                std::size_t cap) noexcept {
  SafeLine line(buf, cap);
  line.str("{\"schema\": \"lrd-profile-v1\", \"query_id\": ").u64(s.qid);
  line.str(", \"stack\": \"");
  const std::uint32_t depth = s.depth > kMaxFrames ? kMaxFrames : s.depth;
  for (std::uint32_t f = depth; f-- > 0;) {
    line.hex(s.pcs[f]);
    if (f != 0) line.ch(';');
  }
  line.str("\", \"count\": 1, \"ts_us\": ").fixed(s.ts_us, 3);
  line.str(", \"tid\": ").u64(tid).ch('}');
  return line.size();
}

}  // namespace lrd::obs::profiler

#else  // LRD_OBS_DISABLED: the whole layer compiles to no-ops.

namespace lrd::obs::profiler {

bool start(const Options&) { return false; }
void stop() {}
bool running() noexcept { return false; }
void sample_now() noexcept {}
std::uint64_t total_samples() noexcept { return 0; }
std::uint64_t dropped() noexcept { return 0; }
std::string to_jsonl() { return {}; }
bool write_file(const std::string&) { return false; }
void reset() {}
std::size_t ring_count() noexcept { return 0; }
std::size_t read_ring(std::size_t, Sample*, std::size_t, std::uint32_t*) noexcept {
  return 0;
}
std::size_t format_sample_jsonl(const Sample&, std::uint32_t, char*,
                                std::size_t) noexcept {
  return 0;
}

}  // namespace lrd::obs::profiler

#endif  // LRD_OBS_DISABLED
