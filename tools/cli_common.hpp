// Minimal flag parsing shared by the lrdq_* command-line tools.
//
// Supports `--name value` and `--name=value` forms plus valueless boolean
// flags; unknown flags are an error (fail fast beats silently ignoring a
// typo in an experiment). `--help` and `--version` are recognized
// everywhere and win over any other parse problem, so `tool --help` /
// `tool --version` never throw.
//
// Observability wiring: every tool accepts `--metrics-out FILE` (metrics
// registry snapshot on exit; ".json" suffix selects JSON, anything else
// Prometheus text) and `--trace-out FILE` (Chrome trace-event JSON; the
// LRDQ_TRACE env var supplies a default path). See setup_observability.
//
// Forensics wiring: every tool also accepts `--access-log FILE` (JSONL
// per-query records; LRDQ_ACCESS_LOG supplies a default), the companion
// `--slow-query-ms MS` threshold, `--dump-dir DIR` (LRDQ_DUMP_DIR)
// which arms the diagnostics-bundle dumper and its crash-signal
// handlers, and `--profile-out FILE` (LRDQ_PROFILE) which starts the
// SIGPROF sampling profiler and writes folded lrd-profile-v1 JSONL at
// exit. All off by default; an explicit flag always beats its env
// fallback (an empty flag value disables the feature outright). See
// setup_forensics / finish_forensics.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "obs/bundle.hpp"
#include "obs/context.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "obs/version.hpp"

namespace lrd::cli {

class Args {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input (exit
  /// code 2 via run_tool). `known` flags take a value; `flags` are
  /// valueless booleans. "help" is always accepted as a boolean flag and
  /// is detected before anything else is parsed, so a command line that
  /// contains --help is never rejected.
  Args(int argc, char** argv, std::vector<std::string> known, std::vector<std::string> flags = {})
      : known_(std::move(known)), flags_(std::move(flags)) {
    flags_.push_back("help");
    flags_.push_back("version");
    known_.push_back("metrics-out");
    known_.push_back("trace-out");
    known_.push_back("access-log");
    known_.push_back("slow-query-ms");
    known_.push_back("dump-dir");
    known_.push_back("profile-out");
    for (int i = 1; i < argc; ++i) {
      if (std::string(argv[i]) == "--help") help_ = true;
      if (std::string(argv[i]) == "--version") version_ = true;
    }
    if (help_ || version_) return;
    for (int i = 1; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) != 0)
        throw std::invalid_argument("unexpected positional argument: " + token);
      token.erase(0, 2);
      std::string value;
      bool have_value = false;
      const auto eq = token.find('=');
      if (eq != std::string::npos) {
        value = token.substr(eq + 1);
        token.erase(eq);
        have_value = true;
      }
      if (std::find(flags_.begin(), flags_.end(), token) != flags_.end()) {
        if (have_value)
          throw std::invalid_argument("flag --" + token + " does not take a value");
        values_[token] = "true";
        continue;
      }
      if (std::find(known_.begin(), known_.end(), token) == known_.end())
        throw std::invalid_argument("unknown flag --" + token);
      if (!have_value) {
        if (i + 1 >= argc) throw std::invalid_argument("flag --" + token + " is missing a value");
        value = argv[++i];
      }
      values_[token] = value;
    }
  }

  /// True when --help appeared anywhere on the command line.
  bool help() const noexcept { return help_; }

  /// True when --version appeared anywhere on the command line.
  bool version() const noexcept { return version_; }

  bool has(const std::string& name) const {
    return name == "help" ? help_ : values_.count(name) > 0;
  }

  std::string get(const std::string& name, const std::string& fallback) const {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  double get_double(const std::string& name, double fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size())
      throw std::invalid_argument("flag --" + name + ": not a number: " + it->second);
    return v;
  }

  std::size_t get_size(const std::string& name, std::size_t fallback) const {
    if (values_.count(name) == 0) return fallback;
    const auto v = size_from_double(get_double(name, 0.0));
    if (!v) throw std::invalid_argument("flag --" + name + ": not a non-negative integer");
    return *v;
  }

  /// Comma-separated list of doubles.
  std::vector<double> get_list(const std::string& name,
                               const std::vector<double>& fallback) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::vector<double> out;
    std::stringstream ss(it->second);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (!item.empty()) out.push_back(std::stod(item));
    }
    if (out.empty()) throw std::invalid_argument("flag --" + name + ": empty list");
    return out;
  }

 private:
  std::vector<std::string> known_;
  std::vector<std::string> flags_;
  std::map<std::string, std::string> values_;
  bool help_ = false;
  bool version_ = false;
};

/// Prints the standard version block (git describe, build type,
/// compiler, solver-cache salt) and returns 0 for the tool to exit with.
inline int print_version(const char* tool) {
  std::fputs(lrd::obs::version_string(tool).c_str(), stdout);
  return 0;
}

/// Where the tool's observability artifacts go, captured at startup so
/// the paths survive until finish_observability at exit.
struct ObsSetup {
  std::string metrics_path;  // empty = no metrics snapshot
  std::string trace_path;    // empty = tracing stays off
};

/// Reads `--metrics-out` / `--trace-out` (LRDQ_TRACE env supplies the
/// trace default) and enables the trace session when a trace path is
/// set. Call once, right after --help/--version handling.
inline ObsSetup setup_observability(const Args& args) {
  ObsSetup setup;
  setup.metrics_path = args.get("metrics-out", "");
  setup.trace_path = args.get("trace-out", "");
  if (setup.trace_path.empty()) {
    if (const char* env = std::getenv("LRDQ_TRACE")) setup.trace_path = env;
  }
  if (!setup.trace_path.empty()) lrd::obs::TraceSession::enable();
  return setup;
}

/// Writes the metrics snapshot and/or trace JSON configured by
/// setup_observability. Failures warn on stderr but never change the
/// tool's exit code: observability must not fail a run that succeeded.
inline void finish_observability(const ObsSetup& setup) {
  if (!setup.metrics_path.empty() &&
      !lrd::obs::Registry::global().write_file(setup.metrics_path))
    std::fprintf(stderr, "warning: could not write metrics to %s\n", setup.metrics_path.c_str());
  if (!setup.trace_path.empty() && !lrd::obs::TraceSession::write_file(setup.trace_path))
    std::fprintf(stderr, "warning: could not write trace to %s\n", setup.trace_path.c_str());
}

/// What setup_forensics armed, captured so finish_forensics can flush
/// at exit (currently only the profile needs an exit write).
struct ForensicsSetup {
  std::string access_log;    // empty = access log off
  std::string dump_dir;      // empty = bundle dumper off
  std::string profile_path;  // empty = profiler off
};

/// Opens the structured access log, arms the diagnostics-bundle dumper
/// and starts the sampling profiler from `--access-log` /
/// `--slow-query-ms` / `--dump-dir` / `--profile-out` (env defaults
/// LRDQ_ACCESS_LOG / LRDQ_DUMP_DIR / LRDQ_PROFILE). `config_json` is
/// the tool's effective configuration, pre-serialized; it lands
/// verbatim in every bundle's config.json. All features default off.
///
/// Precedence: an explicit flag always beats its env fallback — the env
/// var is only consulted when the flag is absent, so `--access-log=`
/// (explicitly empty) disables the feature even with LRDQ_ACCESS_LOG
/// set. The resolved paths are logged once to stderr so a run's
/// artifacts are findable from its log.
///
/// A sink that cannot be opened warns on stderr but never fails the
/// run — forensics must not take down the tool they are meant to
/// explain.
inline ForensicsSetup setup_forensics(const Args& args, const char* tool,
                                      const std::string& config_json = "{}") {
  const auto resolve = [&args](const char* flag, const char* env_var) {
    if (args.has(flag)) return args.get(flag, "");
    if (const char* env = std::getenv(env_var)) return std::string(env);
    return std::string();
  };

  ForensicsSetup setup;
  setup.access_log = resolve("access-log", "LRDQ_ACCESS_LOG");
  if (!setup.access_log.empty()) {
    const double slow_ms = args.get_double("slow-query-ms", 0.0);
    if (!lrd::obs::EventLog::global().open(setup.access_log, slow_ms)) {
      std::fprintf(stderr, "warning: could not open access log %s\n",
                   setup.access_log.c_str());
      setup.access_log.clear();
    }
  }
  setup.dump_dir = resolve("dump-dir", "LRDQ_DUMP_DIR");
  if (!setup.dump_dir.empty()) {
    lrd::obs::bundle::Config cfg;
    cfg.dir = setup.dump_dir;
    cfg.tool = tool;
    cfg.config_json = config_json;
    lrd::obs::bundle::configure(cfg);
  }
  setup.profile_path = resolve("profile-out", "LRDQ_PROFILE");
  if (!setup.profile_path.empty() && !lrd::obs::profiler::start()) {
    std::fprintf(stderr, "warning: profiler unavailable (obs compiled out)\n");
    setup.profile_path.clear();
  }
  if (!setup.access_log.empty() || !setup.dump_dir.empty() ||
      !setup.profile_path.empty()) {
    std::fprintf(stderr, "[%s] forensics: access-log=%s dump-dir=%s profile=%s\n",
                 tool, setup.access_log.empty() ? "-" : setup.access_log.c_str(),
                 setup.dump_dir.empty() ? "-" : setup.dump_dir.c_str(),
                 setup.profile_path.empty() ? "-" : setup.profile_path.c_str());
  }
  return setup;
}

/// Stops the profiler and writes the folded profile configured by
/// setup_forensics. Same contract as finish_observability: failures
/// warn, never change the exit code.
inline void finish_forensics(const ForensicsSetup& setup) {
  if (setup.profile_path.empty()) return;
  lrd::obs::profiler::stop();
  if (!lrd::obs::profiler::write_file(setup.profile_path))
    std::fprintf(stderr, "warning: could not write profile to %s\n",
                 setup.profile_path.c_str());
}

/// Resolves the worker-thread count for a tool: `--threads N` wins, then
/// the LRDQ_THREADS environment variable, then 0 ("use hardware
/// concurrency"). Anything that is not a plain non-negative integer is a
/// configuration error (exit code 3), not a usage error: the value may
/// come from the environment, where "typo in a flag" is the wrong story.
inline std::size_t resolve_threads(const Args& args) {
  std::string text;
  std::string origin;
  if (args.has("threads")) {
    text = args.get("threads", "");
    origin = "--threads";
  } else if (const char* env = std::getenv("LRDQ_THREADS")) {
    text = env;
    origin = "LRDQ_THREADS";
  } else {
    return 0;
  }
  const bool digits_only =
      !text.empty() && std::all_of(text.begin(), text.end(),
                                   [](unsigned char ch) { return ch >= '0' && ch <= '9'; });
  if (!digits_only || text.size() > 6) {
    throw lrd::ConfigError(lrd::make_diagnostics(
        lrd::ErrorCategory::kInvalidConfig, "cli",
        "thread count is a non-negative integer (0 = hardware concurrency)",
        origin + " = \"" + text + "\""));
  }
  return static_cast<std::size_t>(std::strtoull(text.c_str(), nullptr, 10));
}

/// Resolves a wall-clock deadline flag in milliseconds: `--<flag> MS`
/// wins, then the LRDQ_DEADLINE_MS environment variable (the shared
/// default for every deadline-accepting tool — a fleet can bound all
/// solves with one env var), then `fallback` (0 = unbounded). Same
/// error-category contract as resolve_threads: a malformed value is a
/// configuration error (exit 3), not a usage error, because it may come
/// from the environment.
inline std::size_t resolve_deadline_ms(const Args& args, const std::string& flag,
                                       std::size_t fallback = 0) {
  std::string text;
  std::string origin;
  if (args.has(flag)) {
    text = args.get(flag, "");
    origin = "--" + flag;
  } else if (const char* env = std::getenv("LRDQ_DEADLINE_MS")) {
    text = env;
    origin = "LRDQ_DEADLINE_MS";
  } else {
    return fallback;
  }
  const bool digits_only =
      !text.empty() && std::all_of(text.begin(), text.end(),
                                   [](unsigned char ch) { return ch >= '0' && ch <= '9'; });
  if (!digits_only || text.size() > 9) {
    throw lrd::ConfigError(lrd::make_diagnostics(
        lrd::ErrorCategory::kInvalidConfig, "cli",
        "deadline is a non-negative integer millisecond count (0 = unbounded)",
        origin + " = \"" + text + "\""));
  }
  return static_cast<std::size_t>(std::strtoull(text.c_str(), nullptr, 10));
}

/// Standard error handling wrapper for tool main() bodies.
///
/// Exit codes follow the repo-wide taxonomy (lrd::exit_code_for):
///   0  success
///   1  solver finished without converging (tools return this themselves)
///   2  command-line usage error (unknown flag, missing value, bad number)
///   3  invalid configuration or argument (lrd::ConfigError)
///   4  parse error in an input file         (lrd::DataError, kParse)
///   5  I/O error                            (lrd::DataError, kIo)
///   6  numerical guard / budget / internal  (lrd::DataError, others)
/// Exceptions that carry no lrd::Diagnostics are treated as usage errors.
template <typename Fn>
int run_tool(const char* usage, Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    if (const lrd::Diagnostics* d = lrd::diagnostics_of(e)) {
      std::fprintf(stderr, "error: %s\n", d->describe().c_str());
      return lrd::exit_code_for(d->category);
    }
    std::fprintf(stderr, "error: %s\n\n%s\n", e.what(), usage);
    return 2;
  }
}

}  // namespace lrd::cli
