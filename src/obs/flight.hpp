// Flight recorder: always-on, lock-free, per-thread ring buffers of
// recent structured events — the forensic layer underneath the metrics
// registry and the trace spans.
//
// Metrics aggregate (what happened, in total); spans sample (what
// happened, when tracing was on). The flight recorder answers the
// post-mortem question: what were the last few thousand things this
// process did, per thread, right up to the instant it died? Every
// event is a fixed 64-byte POD (timestamp, query id, kind, a short
// tag, two integer payloads, one double), recorded with a handful of relaxed
// atomic stores into the recording thread's own ring — no locks, no
// allocation, no formatting on the hot path — so it stays enabled in
// production within the same <2% budget the span layer honors
// (bench: micro_obs `event_append`).
//
// Crash-safety contract: the rings are obs::Ring instances (obs/ring.hpp)
// in static storage, so a signal handler (obs/bundle.hpp) can walk them
// and format events with write(2) only — `ring_count`, `read_ring` and
// `format_event_jsonl` are async-signal-safe. Tags are sanitized at
// record time (quotes, backslashes and control bytes become '_'),
// so a dump never needs JSON escaping. A snapshot is exact per ring —
// never a torn event — but only *recent*: events older than the ring
// capacity are gone, by design.
//
// The per-thread registration that owns a flight ring is also where the
// trace layer keeps the thread's span ring (obs/trace.cpp, same index).
//
// Compiled out with the rest of the obs layer under -DLRD_OBS_DISABLED:
// record() becomes an empty inline function.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"  // kObsEnabled

namespace lrd::obs::flight {

/// What happened. Values are stable wire numbers (they appear in
/// dumped bundles); append only.
enum class EventKind : std::uint16_t {
  kUnknown = 0,
  kQueryAdmitted,      ///< serve: query entered the worker queue (a = depth).
  kQueryStarted,       ///< serve: a worker picked the query up.
  kQueryFinished,      ///< serve: response written (a = code, b = queue µs, x = wall ms).
  kQueryShed,          ///< serve: admission control rejected (a = queue depth).
  kCacheHit,           ///< solver cache (a = key, b = 1 when served from disk).
  kCacheMiss,          ///< solver cache (a = key).
  kCacheStore,         ///< solver cache (a = key, x = cost seconds).
  kCacheEvict,         ///< solver cache (a = key, x = evicted cost).
  kSolveLevel,         ///< solver refinement level started (a = level, b = bins).
  kSolveFinish,        ///< solve returned (a = iterations, b = bins, x = wall ms).
  kDeadlineExceeded,   ///< a solve gave up on its deadline (x = deadline ms).
  kRetry,              ///< sweep cell retried at coarser bins (a = attempt, b = max bins).
  kFailpoint,          ///< an armed failpoint fired (tag = site, a = mode).
  kDump,               ///< a diagnostics bundle dump started (tag = reason).
  kCrashSignal,        ///< fatal signal caught (a = signal number).
};

/// Stable snake_case name of a kind ("query_finished"); "unknown" for
/// values outside the enum (a newer bundle read by an older doctor).
const char* event_kind_name(EventKind k) noexcept;

/// One recorded event. Fixed 64-byte trivially-copyable layout: the
/// ring stores exactly these bytes as eight atomic words.
struct Event {
  double ts_us = 0.0;       ///< clock::process_uptime_us at record time.
  std::uint64_t qid = 0;    ///< obs::QueryId active at record time (0 = none).
  std::uint64_t a = 0;      ///< Kind-specific (see EventKind comments).
  std::uint64_t b = 0;
  double x = 0.0;           ///< Kind-specific measure (ms, seconds, ...).
  std::uint16_t kind = 0;   ///< EventKind as its wire number.
  std::uint16_t reserved = 0;
  char tag[20] = {};        ///< NUL-padded, JSON-safe (sanitized on record).
};
static_assert(sizeof(Event) == 64, "Event is the ring's 64-byte slot");
static_assert(std::is_trivially_copyable_v<Event>);

/// Longest tag stored (the rest is truncated): sizeof tag minus the
/// guaranteed NUL.
inline constexpr std::size_t kMaxTagBytes = sizeof(Event{}.tag) - 1;

/// Events kept per thread: the newest kCapacity survive.
inline constexpr std::size_t kCapacity = 4096;

/// Threads registered at once. A thread registers on its first event
/// (or span) and releases its registration at exit, so this bounds
/// *concurrent* recording threads, not thread churn.
inline constexpr std::size_t kMaxThreads = 64;

/// The calling thread's registration: its ring `index` (below
/// ring_count()) and OS thread id. `index` is -1 when all kMaxThreads
/// registrations are held by live threads.
struct ThreadSlot {
  int index = -1;
  std::uint32_t tid = 0;
};
/// Registers the calling thread on first use (one mutex acquisition per
/// thread); later calls read a thread-local.
ThreadSlot this_thread() noexcept;

/// Records one event on the calling thread's ring, stamped with the
/// thread's active query id (obs::current_query_id). Never throws,
/// never blocks (first call per thread registers it; if every
/// registration is taken the event is counted dropped instead).
void record(EventKind kind, std::string_view tag, std::uint64_t a = 0,
            std::uint64_t b = 0, double x = 0.0) noexcept;

/// One event as seen by a reader, labeled with its ring's thread id
/// and its position in that ring's append order.
struct Recorded {
  Event event;
  std::uint32_t tid = 0;
  std::uint64_t index = 0;  ///< Per-ring sequence number of the event.
};

/// Consistent copy of every ring's recent events, merged and sorted by
/// timestamp. Takes no locks; concurrent recording keeps going.
std::vector<Recorded> snapshot();

/// The merged snapshot as JSONL, one `format_event_jsonl` line per
/// event — the non-crash bundle writer and the tests use this.
std::string to_jsonl();

/// Events recorded process-wide since start (or the last reset),
/// including any that have since been overwritten.
std::uint64_t total_recorded() noexcept;
/// Events that could not be recorded because all rings were taken.
std::uint64_t dropped() noexcept;

/// Test hook: clears every ring and the dropped count. Call only while
/// no other thread is recording.
void reset();

/// Number of rings ever registered. Async-signal-safe.
std::size_t ring_count() noexcept;

/// Copies up to `max_events` of ring `i`'s newest events into `out`
/// (oldest first) and reports the owning thread id; returns the count.
/// Async-signal-safe: atomic loads and memcpy only.
std::size_t read_ring(std::size_t i, Event* out, std::size_t max_events,
                      std::uint32_t* tid) noexcept;

/// Formats one event as a single JSON line (no trailing newline) into
/// `buf`; returns the byte count (0 when `cap` is too small).
/// Async-signal-safe: hand-rolled number formatting, no stdio.
std::size_t format_event_jsonl(const Event& e, std::uint32_t tid, char* buf,
                               std::size_t cap) noexcept;

}  // namespace lrd::obs::flight
