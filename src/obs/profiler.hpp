// In-process sampling profiler: SIGPROF-driven stack capture into
// per-thread lock-free rings, attributed to the active query.
//
// The flight recorder answers "what did the process do"; the profiler
// answers "where did the CPU go, and for which query". A POSIX
// ITIMER_PROF timer delivers SIGPROF on CPU time (user + system), the
// handler captures a raw frame stack (a bounds-checked frame-pointer
// walk from the ucontext registers — glibc backtrace() takes rtld
// locks and deadlocks under signals, so it never runs here) plus the
// calling thread's obs::current_query_id(), and publishes the sample
// into the thread's obs::Ring (obs/ring.hpp), the primitive the flight
// recorder and the trace spans also record into. No locks, no
// allocation, no symbolization on the signal path. The build keeps
// frame pointers (-fno-omit-frame-pointer) so the walk sees real
// chains in this repo's code; FP-less foreign frames end a stack
// early rather than corrupting it.
//
// Two sampling sources share the rings:
//   * the SIGPROF timer (Options::interval_us > 0) — statistical
//     CPU profile of whatever runs;
//   * explicit sample_now() markers (any interval, including the
//     manual-only interval_us == 0 mode) — the solver drops one per
//     refinement level so even a sub-interval solve leaves at least
//     one attributed sample, which is what makes the CI correlation
//     drill deterministic.
//
// Reading is flush-time work: to_jsonl()/write_file() walk the rings,
// symbolize frames with dladdr + __cxa_demangle, and fold identical
// (query_id, stack) pairs into `lrd-profile-v1` JSONL records — the
// same folded-stack shape flamegraph tooling eats:
//
//   {"schema": "lrd-profile-v1", "query_id": 123,
//    "stack": "main;lrd::solve;fold_step", "count": 17,
//    "interval_us": 1999}
//
// Rings hold the newest ~kRingCapacity samples per thread — the same
// tail semantics as the flight recorder — so the crash handler
// (obs/bundle.cpp) can dump the profile tail async-signal-safely via
// ring_count/read_ring/format_sample_jsonl (raw hex frames, count 1).
//
// Compiled out with the rest of the obs layer under -DLRD_OBS_DISABLED.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "obs/metrics.hpp"  // kObsEnabled

namespace lrd::obs::profiler {

/// Deepest stack kept per sample; deeper frames are truncated at the
/// leaf end (the root — main — always survives).
inline constexpr std::size_t kMaxFrames = 16;

/// One captured sample. Trivially-copyable fixed layout: the ring
/// stores exactly these 152 bytes as nineteen relaxed atomic words.
struct Sample {
  double ts_us = 0.0;            ///< clock::process_uptime_us at capture.
  std::uint64_t qid = 0;         ///< Active query id (0 = unattributed).
  std::uint32_t depth = 0;       ///< Valid entries in pcs, leaf first.
  std::uint32_t reserved = 0;
  std::uint64_t pcs[kMaxFrames] = {};  ///< Return addresses, leaf first.
};
static_assert(sizeof(Sample) == 24 + kMaxFrames * 8, "ring slot layout");
static_assert(std::is_trivially_copyable_v<Sample>);

struct Options {
  /// SIGPROF period in CPU microseconds. 0 disarms the timer: only
  /// explicit sample_now() calls record (the bench + marker mode).
  /// The default is deliberately off-round so the timer does not
  /// phase-lock with millisecond-periodic work.
  std::uint32_t interval_us = 1999;
};

/// Arms the profiler process-wide (idempotent). Warms the backtrace
/// machinery so the signal path never allocates, then installs the
/// SIGPROF handler + ITIMER_PROF timer when interval_us > 0.
/// Returns false only when the obs layer is compiled out.
bool start(const Options& opt = {});

/// Disarms the timer and stops recording. Captured samples stay
/// readable (to_jsonl, read_ring) until reset().
void stop();

bool running() noexcept;

/// Records one sample of the calling thread's stack now, if the
/// profiler is running. One relaxed load when it is not — cheap enough
/// to leave in hot paths as a correlation marker (bench:
/// micro_obs `profiler_disabled`).
void sample_now() noexcept;

/// Samples captured / dropped (no free ring) since start or reset.
std::uint64_t total_samples() noexcept;
std::uint64_t dropped() noexcept;

/// Folded lrd-profile-v1 JSONL of every ring: frames symbolized and
/// joined root-first with ';', identical (query_id, stack) pairs
/// summed into one record. Not async-signal-safe (symbolizes).
std::string to_jsonl();

/// Writes to_jsonl() atomically (temp file + rename). False on I/O
/// error or when the obs layer is compiled out.
bool write_file(const std::string& path);

/// Test hook: drops every sample and ring claim. Call only while
/// stopped and no thread is mid-sample.
void reset();

/// Crash-path access, async-signal-safe like the flight recorder's.
std::size_t ring_count() noexcept;
std::size_t read_ring(std::size_t i, Sample* out, std::size_t max_samples,
                      std::uint32_t* tid) noexcept;

/// One raw sample as a single lrd-profile-v1 JSON line (count 1,
/// frames as root-first hex addresses); returns bytes written, 0 when
/// `cap` is too small. Async-signal-safe.
std::size_t format_sample_jsonl(const Sample& s, std::uint32_t tid, char* buf,
                                std::size_t cap) noexcept;

}  // namespace lrd::obs::profiler
