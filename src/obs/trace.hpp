// RAII spans recorded into per-thread lock-free rings, exported as Chrome
// trace-event JSON — the file `chrome://tracing` and https://ui.perfetto.dev
// load directly. One span = one complete ("ph":"X") event with a
// microsecond timestamp and duration on the recording thread's track;
// instant events ("ph":"i") mark moments (a refinement, a cache hit).
//
// Cost model: tracing is off by default. Every instrumentation point is
// one relaxed atomic load and a predictable branch when disabled — and
// compiles to nothing under -DLRD_OBS_DISABLED. When enabled, an event is
// a fixed-size record (name and category literals, up to four integer
// args keyed by literals) pushed onto the thread's obs::Ring — no lock,
// no allocation. Each ring keeps the newest 2^15 events, so a long sweep
// keeps the most recent events per thread instead of growing without
// bound; the dropped-event count is reported in the export. The ring
// sits beside the thread's flight-recorder ring (same registration,
// obs/flight.hpp), so at most flight::kMaxThreads threads record at once.
//
// Typical wiring (see tools/cli_common.hpp): `--trace-out FILE` or the
// LRDQ_TRACE env var enables the session at startup and writes the JSON
// on exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"  // kObsEnabled

namespace lrd::obs {

class TraceSession {
 public:
  /// True when spans are being recorded. One relaxed load — callers may
  /// (and do) check this on hot paths.
  static bool enabled() noexcept {
    if constexpr (!kObsEnabled) return false;
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Starts / stops recording; recorded events stay until reset().
  static void enable();
  static void disable();

  /// Test hook: discards every recorded event and the dropped count.
  /// Call only while no other thread is recording.
  static void reset();

  /// Events overwritten (or refused for want of a thread registration)
  /// since the last reset().
  static std::uint64_t dropped();
  /// Events currently held across all rings.
  static std::size_t recorded();

  /// Chrome trace-event JSON ({"traceEvents": [...]}) of everything
  /// recorded so far, all threads merged onto one timeline.
  static std::string to_json();
  /// Atomic write (temp + rename); false on I/O failure.
  static bool write_file(const std::string& path);

 private:
  static std::atomic<bool>& enabled_flag() noexcept;
};

/// Names the current thread's track in the exported trace (Perfetto
/// shows it instead of the numeric tid). Keeps the first 27 bytes,
/// JSON-sanitized. Cheap; safe to call repeatedly.
void set_thread_name(std::string_view name) noexcept;

/// One integer arg of an event; `key` is a string literal (stored
/// unowned), nullptr for an unused slot.
struct TraceArg {
  const char* key;
  std::int64_t value;
};
using TraceArgs = std::array<TraceArg, 4>;

/// Records an instant event (a point in time) on the current thread,
/// with an optional integer arg. `name`, `category` and `key` must be
/// string literals.
void instant(const char* name, const char* category, const char* key = nullptr,
             std::int64_t value = 0) noexcept;

/// RAII span: records a complete event covering construction to
/// destruction. `name` and `category` must be string literals without
/// quotes or backslashes (they are stored unowned and exported
/// unescaped). Construction when tracing is disabled is one relaxed
/// load.
class Span {
 public:
  Span(const char* name, const char* category) noexcept
      : active_(TraceSession::enabled()), name_(name), category_(category) {
    if (active_) {
      start_us_ = start_timestamp();
      args_ = {};
    }
  }
  ~Span() {
    if (active_) record_end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches up to four integer args keyed by string literals,
  /// replacing earlier ones: `span.annotate("row", r, "col", c)`.
  /// Allocation-free; a no-op when tracing is disabled.
  void annotate(const char* k0, std::int64_t v0, const char* k1 = nullptr,
                std::int64_t v1 = 0, const char* k2 = nullptr, std::int64_t v2 = 0,
                const char* k3 = nullptr, std::int64_t v3 = 0) noexcept {
    if (active_) args_ = {{{k0, v0}, {k1, v1}, {k2, v2}, {k3, v3}}};
  }

 private:
  static double start_timestamp() noexcept;
  void record_end() noexcept;

  bool active_;
  const char* name_;
  const char* category_;
  double start_us_ = 0.0;
  TraceArgs args_;  // set only while active_
};

}  // namespace lrd::obs
