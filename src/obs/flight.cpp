#include "obs/flight.hpp"

#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/ring.hpp"

namespace lrd::obs::flight {

namespace {

/// One registration per recording thread. Namespace-scope and
/// constant-initialized, so the signal handler never touches a
/// function-local-static guard and an idle ring costs no resident pages.
struct Registration {
  std::atomic<std::uint32_t> tid{0};
  std::atomic<bool> in_use{false};
  Ring<Event, kCapacity> events;
};

Registration g_regs[kMaxThreads];
std::atomic<std::size_t> g_ring_count{0};  // high-water mark, release-published
std::atomic<std::uint64_t> g_dropped{0};
std::mutex g_reg_mu;  // registration / reset only — never the record path

/// Releases the thread's registration at exit so a later thread can
/// reuse it; the recorded events survive until overwritten.
struct ThreadRegistration {
  ThreadSlot slot;
  bool failed = false;
  ~ThreadRegistration() {
    if (slot.index >= 0) g_regs[slot.index].in_use.store(false, std::memory_order_release);
  }
};
thread_local ThreadRegistration t_reg;

ThreadSlot register_thread() noexcept {
  const auto tid = static_cast<std::uint32_t>(::syscall(SYS_gettid));
  std::lock_guard<std::mutex> lock(g_reg_mu);
  const std::size_t count = g_ring_count.load(std::memory_order_relaxed);
  std::size_t i = 0;
  while (i < count && g_regs[i].in_use.load(std::memory_order_relaxed)) ++i;
  if (i == kMaxThreads) return {};
  g_regs[i].tid.store(tid, std::memory_order_relaxed);
  g_regs[i].in_use.store(true, std::memory_order_relaxed);
  if (i == count) g_ring_count.store(count + 1, std::memory_order_release);
  return {static_cast<int>(i), tid};
}

}  // namespace

ThreadSlot this_thread() noexcept {
  if (t_reg.slot.index < 0 && !t_reg.failed) {
    // A thread that finds every registration taken records nothing,
    // ever, instead of retrying on every event.
    t_reg.slot = register_thread();
    t_reg.failed = t_reg.slot.index < 0;
  }
  return t_reg.slot;
}

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kUnknown: return "unknown";
    case EventKind::kQueryAdmitted: return "query_admitted";
    case EventKind::kQueryStarted: return "query_started";
    case EventKind::kQueryFinished: return "query_finished";
    case EventKind::kQueryShed: return "query_shed";
    case EventKind::kCacheHit: return "cache_hit";
    case EventKind::kCacheMiss: return "cache_miss";
    case EventKind::kCacheStore: return "cache_store";
    case EventKind::kCacheEvict: return "cache_evict";
    case EventKind::kSolveLevel: return "solve_level";
    case EventKind::kSolveFinish: return "solve_finish";
    case EventKind::kDeadlineExceeded: return "deadline_exceeded";
    case EventKind::kRetry: return "retry";
    case EventKind::kFailpoint: return "failpoint";
    case EventKind::kDump: return "dump";
    case EventKind::kCrashSignal: return "crash_signal";
  }
  return "unknown";
}

void record(EventKind kind, std::string_view tag, std::uint64_t a, std::uint64_t b,
            double x) noexcept {
  if constexpr (!kObsEnabled) { (void)kind; (void)tag; (void)a; (void)b; (void)x; return; }
  const ThreadSlot self = this_thread();
  if (self.index < 0) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event e;
  e.ts_us = process_uptime_us();
  e.qid = current_query_id();
  e.a = a;
  e.b = b;
  e.x = x;
  e.kind = static_cast<std::uint16_t>(kind);
  copy_json_safe(e.tag, sizeof e.tag, tag);
  g_regs[self.index].events.push(e);
}

std::vector<Recorded> snapshot() {
  std::vector<Recorded> out;
  if constexpr (!kObsEnabled) return out;
  std::vector<Event> buf(kCapacity);
  for (std::size_t i = 0; i < ring_count(); ++i) {
    std::uint64_t first = 0;
    const std::size_t n = g_regs[i].events.read_tail(buf.data(), buf.size(), &first);
    const std::uint32_t tid = g_regs[i].tid.load(std::memory_order_relaxed);
    for (std::size_t k = 0; k < n; ++k) out.push_back(Recorded{buf[k], tid, first + k});
  }
  std::stable_sort(out.begin(), out.end(), [](const Recorded& a, const Recorded& b) {
    return a.event.ts_us < b.event.ts_us;
  });
  return out;
}

std::string to_jsonl() {
  std::string out;
  char line[352];
  for (const Recorded& rec : snapshot()) {
    const std::size_t n = format_event_jsonl(rec.event, rec.tid, line, sizeof line);
    out.append(line, n);
    out.push_back('\n');
  }
  return out;
}

std::uint64_t total_recorded() noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < ring_count(); ++i) total += g_regs[i].events.appended();
  return total;
}

std::uint64_t dropped() noexcept { return g_dropped.load(std::memory_order_relaxed); }

void reset() {
  std::lock_guard<std::mutex> lock(g_reg_mu);
  for (std::size_t i = 0; i < ring_count(); ++i) g_regs[i].events.clear();
  g_dropped.store(0, std::memory_order_relaxed);
}

std::size_t ring_count() noexcept { return g_ring_count.load(std::memory_order_acquire); }

std::size_t read_ring(std::size_t i, Event* out, std::size_t max_events,
                      std::uint32_t* tid) noexcept {
  if (i >= ring_count() || out == nullptr) return 0;
  if (tid != nullptr) *tid = g_regs[i].tid.load(std::memory_order_relaxed);
  return g_regs[i].events.read_tail(out, max_events);
}

std::size_t format_event_jsonl(const Event& e, std::uint32_t tid, char* buf,
                               std::size_t cap) noexcept {
  SafeLine line(buf, cap);
  line.str("{\"ts_us\": ").fixed(e.ts_us, 3);
  line.str(", \"qid\": ").u64(e.qid);
  line.str(", \"kind\": \"").str(event_kind_name(static_cast<EventKind>(e.kind)));
  line.str("\", \"tag\": \"").safe(std::string_view(e.tag, strnlen(e.tag, sizeof e.tag)));
  line.str("\", \"a\": ").u64(e.a);
  line.str(", \"b\": ").u64(e.b);
  line.str(", \"x\": ").fixed(e.x, 6);
  line.str(", \"tid\": ").u64(tid).ch('}');
  return line.size();
}

}  // namespace lrd::obs::flight
