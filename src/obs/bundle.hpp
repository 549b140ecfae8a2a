// Diagnostics bundle dumper: when something goes wrong — a fatal
// signal, a deadline expiry, a shed storm, or an operator asking — the
// process writes a self-describing bundle directory and the evidence
// survives the process.
//
// A bundle is a directory under the configured root:
//
//   <dir>/<tool>-<pid>-<n>/    on-demand and incident dumps
//   <dir>/crash-<pid>/         fatal-signal dumps
//     bundle.json     manifest: schema lrd-bundle-v1, reason, tool,
//                     pid, crash flag, signal, timestamp, file list
//     flight.jsonl    flight-recorder tail (obs/flight.hpp), one
//                     event per line, ending with a synthesized
//                     crash_signal event on the crash path
//     build.json      git describe / build type / compiler / salt
//     config.json     the tool's effective configuration
//     metrics.json    metrics registry snapshot   (non-crash only)
//     cache.json      solver-cache stats snapshot (non-crash only,
//                     when a provider is registered)
//
// Crash path contract: the SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL
// handler uses only async-signal-safe calls — mkdir/open/write/time,
// preallocated flight-ring storage, strings pre-rendered by
// configure() into static buffers, and the signal-safe formatters
// from obs/ring.hpp. No malloc, no stdio, no locks. After writing
// the bundle it restores the default disposition and re-raises, so
// exit status and core-dump behaviour are unchanged — the bundle is
// in *addition* to whatever the operator's ulimits say.
//
// `dump_incident` is the rate-limited variant wired to
// deadline_exceeded / shed outcomes: at most one bundle per
// min_incident_interval_ms, so an overload storm yields one bundle,
// not thousands.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace lrd::obs::bundle {

struct Config {
  /// Bundle root directory (created on demand). Empty = dumping stays
  /// disabled and every dump() returns "".
  std::string dir;
  /// Tool name used in bundle directory names and manifests.
  std::string tool = "lrdq";
  /// Effective configuration, pre-serialized as one JSON object; lands
  /// verbatim in config.json.
  std::string config_json = "{}";
  /// Install the fatal-signal handlers (SIGSEGV/SIGABRT/SIGBUS/
  /// SIGFPE/SIGILL). Off for tools that only want on-demand dumps.
  bool install_crash_handler = true;
  /// Minimum spacing of dump_incident() bundles.
  std::size_t min_incident_interval_ms = 5000;
};

/// Arms the dumper: pre-renders the crash-path strings into static
/// storage and (optionally) installs the signal handlers. Call once at
/// tool startup, after flags are parsed. Calling again replaces the
/// configuration.
void configure(const Config& cfg);

/// True once configure() ran with a non-empty dir.
bool configured() noexcept;

/// Registers the callable that snapshots solver-cache stats as a JSON
/// object (cache.json). Called outside the signal path only.
void set_cache_stats_provider(std::function<std::string()> provider);

/// Writes a full bundle now; returns its directory path, or "" when
/// unconfigured or the write failed. Thread-safe.
std::string dump(std::string_view reason);

/// Rate-limited dump for recurring incidents (deadline_exceeded,
/// shed). Returns "" when suppressed by the interval.
std::string dump_incident(std::string_view reason);

/// Test hook: uninstalls nothing but forgets the configuration, so a
/// later configure() starts fresh and dump() returns "" again.
void reset_for_tests();

}  // namespace lrd::obs::bundle
