#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/clock.hpp"
#include "obs/context.hpp"
#include "obs/flight.hpp"
#include "obs/ring.hpp"

namespace lrd::obs {

namespace {

/// One span or instant: a fixed 112-byte record of literals and numbers.
struct Event {
  double ts_us;
  double dur_us;  // < 0 -> instant event
  std::uint64_t qid;
  const char* name;
  const char* category;
  TraceArgs args;
  std::uint32_t tid;  // per event: a registration outlives its thread
  std::uint32_t reserved;
};
static_assert(sizeof(Event) == 112);

struct ThreadName {
  std::uint32_t tid;
  char text[28];
};

constexpr std::size_t kCapacity = 1 << 15;

/// Indexed like the flight recorder's registrations: slot i belongs to
/// whichever thread holds flight registration i.
struct ThreadTrace {
  Ring<Event, kCapacity> events;
  Ring<ThreadName, 1> name;
};
ThreadTrace g_threads[flight::kMaxThreads];
std::atomic<std::uint64_t> g_unregistered{0};

void push(Event& e) noexcept {
  const flight::ThreadSlot self = flight::this_thread();
  if (self.index < 0) {
    g_unregistered.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  e.qid = current_query_id();
  e.tid = self.tid;
  e.reserved = 0;
  g_threads[self.index].events.push(e);
}

}  // namespace

std::atomic<bool>& TraceSession::enabled_flag() noexcept {
  static std::atomic<bool> flag{false};
  return flag;
}

void TraceSession::enable() {
  if constexpr (!kObsEnabled) return;
  // Pin the trace epoch before the first span reads it.
  (void)process_uptime_us();
  enabled_flag().store(true, std::memory_order_relaxed);
}

void TraceSession::disable() { enabled_flag().store(false, std::memory_order_relaxed); }

void TraceSession::reset() {
  for (std::size_t i = 0; i < flight::ring_count(); ++i) g_threads[i].events.clear();
  g_unregistered.store(0, std::memory_order_relaxed);
}

std::uint64_t TraceSession::dropped() {
  std::uint64_t dropped = g_unregistered.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < flight::ring_count(); ++i)
    dropped += std::max<std::uint64_t>(g_threads[i].events.appended(), kCapacity) - kCapacity;
  return dropped;
}

std::size_t TraceSession::recorded() {
  std::size_t n = 0;
  for (std::size_t i = 0; i < flight::ring_count(); ++i)
    n += std::min<std::uint64_t>(g_threads[i].events.appended(), kCapacity);
  return n;
}

std::string TraceSession::to_json() {
  std::string out = "{\n\"displayTimeUnit\": \"ms\",\n\"droppedEvents\": ";
  out += std::to_string(dropped()) + ",\n\"traceEvents\": [";
  bool first = true;
  const auto open_event = [&](const char* head) {
    out += first ? "\n{" : ",\n{";
    out += head;
    first = false;
  };
  char num[96];
  std::vector<Event> events;
  for (std::size_t i = 0; i < flight::ring_count(); ++i) {
    ThreadName name;
    if (g_threads[i].name.read_tail(&name, 1) == 1) {
      open_event("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":");
      out += std::to_string(name.tid) + ",\"args\":{\"name\":\"" + name.text + "\"}}";
    }
    const std::size_t have = events.size();
    events.resize(have + kCapacity);
    events.resize(have + g_threads[i].events.read_tail(events.data() + have, kCapacity));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.ts_us < b.ts_us; });

  for (const Event& e : events) {
    open_event("\"name\":\"");
    ((out += e.name) += "\",\"cat\":\"") += e.category;
    if (e.dur_us < 0.0)
      std::snprintf(num, sizeof num, "\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f", e.ts_us);
    else
      std::snprintf(num, sizeof num, "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f", e.ts_us,
                    e.dur_us);
    out += num;
    out += ",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    bool has_args = false;
    for (const TraceArg& a : e.args) {
      if (a.key == nullptr) continue;
      out += has_args ? ", \"" : ",\"args\":{\"";
      (out += a.key) += "\": " + std::to_string(a.value);
      has_args = true;
    }
    if (e.qid != 0) {
      out += has_args ? ", " : ",\"args\":{";
      out += "\"qid\": " + std::to_string(e.qid);
      has_args = true;
    }
    out += has_args ? "}}" : "}";
  }
  out += first ? "]\n}\n" : "\n]\n}\n";
  return out;
}

bool TraceSession::write_file(const std::string& path) {
  return write_file_atomic(path, to_json());
}

void set_thread_name(std::string_view name) noexcept {
  if constexpr (!kObsEnabled) return;
  const flight::ThreadSlot self = flight::this_thread();
  if (self.index < 0) return;
  ThreadName n{};
  n.tid = self.tid;
  copy_json_safe(n.text, sizeof n.text, name);
  g_threads[self.index].name.push(n);
}

void instant(const char* name, const char* category, const char* key,
             std::int64_t value) noexcept {
  if (!TraceSession::enabled()) return;
  Event e;
  e.ts_us = process_uptime_us();
  e.dur_us = -1.0;
  e.name = name;
  e.category = category;
  e.args = {{{key, value}, {nullptr, 0}, {nullptr, 0}, {nullptr, 0}}};
  push(e);
}

double Span::start_timestamp() noexcept { return process_uptime_us(); }

void Span::record_end() noexcept {
  Event e;
  e.ts_us = start_us_;
  e.dur_us = std::max(0.0, process_uptime_us() - start_us_);
  e.name = name_;
  e.category = category_;
  e.args = args_;
  push(e);
}

}  // namespace lrd::obs
