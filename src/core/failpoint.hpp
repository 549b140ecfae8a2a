// Deterministic fault-injection framework ("failpoints").
//
// A failpoint is a named site in the code where a test (or an operator
// chasing a bug) can inject a failure without touching the source:
//
//   LRDQ_FAILPOINTS="cache.append=io_error@3,manifest.write=torn_write@1"
//   LRDQ_FAILPOINTS="solve.level=delay:50ms"
//
// Spec grammar, comma-separated:  site=mode[:arg][@count]
//   * mode     one of io_error | exception | torn_write | delay | crash
//              ("crash-sim" is accepted as an alias for crash);
//   * :arg     delay takes a duration ("50ms", "1s", or a bare number of
//              milliseconds); torn_write takes the number of bytes of the
//              record to keep (default: half);
//   * @count   fire on the count-th hit of the site only (1-based);
//              without it the site fires on every hit.
//
// Mode semantics at the hit site:
//   * io_error    returned to the caller, which takes its existing
//                 I/O-failure path (as if fopen/fwrite/rename failed);
//   * exception   failpoint_hit throws lrd::DataError (kIo) — exercises
//                 the catch paths above the site;
//   * torn_write  returned to the caller, which truncates the write to
//                 `arg` bytes — simulates a crash mid-write;
//   * delay       failpoint_hit sleeps for the given duration — widens
//                 race windows and forces deadline expiries on demand;
//   * crash       failpoint_hit throws core::CrashSimulated, a type that
//                 deliberately does NOT derive from std::exception, so it
//                 sails through every `catch (const std::exception&)` on
//                 the way out — the closest an in-process test gets to
//                 `kill -9` at an exact program point.
//
// Zero-cost when compiled out: unless the build sets
// -DLRD_ENABLE_FAILPOINTS=ON (compile definition LRD_FAILPOINTS_ENABLED),
// every function here is a constexpr-foldable inline no-op and release
// binaries carry no trace of the framework. Instrumented sites register
// themselves in a process-wide registry (`failpoint_sites()`), which is
// how the crash-recovery torture test enumerates everything it must
// survive.
//
// The header lives in core/ (it is part of the library's public failure
// model) but the implementation is compiled into the bottom-layer lrd_obs
// library so that lrd_runtime — which sits below lrd_core — can be
// instrumented too.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace lrd::core {

/// Thrown by a `crash` failpoint. Not derived from std::exception on
/// purpose: a simulated crash must not be absorbed by the graceful
/// degradation paths (`catch (const std::exception&)`) whose behaviour
/// under abrupt death is exactly what the torture tests probe.
struct CrashSimulated {
  std::string site;
};

enum class FailMode { kOff = 0, kIoError, kException, kTornWrite, kDelay, kCrash };

/// What an armed failpoint asks of its site for this hit. Delay,
/// exception and crash are handled centrally inside failpoint_hit;
/// io_error and torn_write need site-specific handling, so they come
/// back to the caller.
struct FailAction {
  FailMode mode = FailMode::kOff;
  std::size_t arg = 0;  ///< torn_write: bytes to keep (0 = half the record).

  bool fired() const noexcept { return mode != FailMode::kOff; }
  bool io_error() const noexcept { return mode == FailMode::kIoError; }
  bool torn_write() const noexcept { return mode == FailMode::kTornWrite; }

  /// Bytes of an n-byte record a torn write keeps.
  std::size_t torn_bytes(std::size_t n) const noexcept {
    const std::size_t keep = arg == 0 ? n / 2 : arg;
    return keep < n ? keep : n;
  }
};

#if defined(LRD_FAILPOINTS_ENABLED)

inline constexpr bool kFailpointsEnabled = true;

/// Reports one hit of `site`: registers the site, evaluates the armed
/// spec (if any), handles delay / exception / crash centrally, and
/// returns the action io_error / torn_write sites must apply themselves.
FailAction failpoint_hit(std::string_view site);

/// Arms failpoints from a spec string (grammar above). Throws
/// lrd::ConfigError on a malformed spec. Specs accumulate; re-arming a
/// site replaces its previous spec and resets its hit counter.
void failpoint_arm(std::string_view spec);

/// Arms from the LRDQ_FAILPOINTS environment variable; returns whether
/// the variable was present. Called once per process (from the first
/// failpoint_hit), so exported specs apply to every tool unchanged.
bool failpoint_arm_from_env();

/// Disarms every failpoint and resets all hit counters (tests).
void failpoint_disarm_all();

/// Every site the process knows: the statically declared instrumented
/// sites plus any site that has reported a hit. Sorted, duplicate-free.
std::vector<std::string> failpoint_sites();

#else  // failpoints compiled out: every call collapses to a no-op.

inline constexpr bool kFailpointsEnabled = false;

inline FailAction failpoint_hit(std::string_view) noexcept { return {}; }
inline void failpoint_arm(std::string_view) {}
inline bool failpoint_arm_from_env() { return false; }
inline void failpoint_disarm_all() {}
inline std::vector<std::string> failpoint_sites() { return {}; }

#endif

}  // namespace lrd::core
