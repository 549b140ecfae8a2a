#include "core/failpoint.hpp"

#if defined(LRD_FAILPOINTS_ENABLED)

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "core/status.hpp"
#include "obs/flight.hpp"

namespace lrd::core {

namespace {

/// Sites the library instruments today, known to the registry even before
/// their first hit so the torture test can enumerate them without first
/// running every code path. A site string is "<subsystem>.<operation>".
constexpr const char* kInstrumentedSites[] = {
    "cache.load",        // SolverCache ctor: read of solver_cache.txt
    "cache.append",      // SolverCache::store: append of one record
    "cache.compact",     // SolverCache compaction: atomic rewrite
    "cache.evict",       // SolverCache memory tier: LRU eviction of one entry
    "serve.accept",      // lrdq_serve: accept of one client connection
    "serve.read",        // lrdq_serve: read of one query line
    "serve.write",       // lrdq_serve: write of one response line
    "serve.shed",        // lrdq_serve: admission control rejecting a query
    "manifest.write",    // RunManifest::write_file: temp-file write
    "manifest.fsync",    // RunManifest::write_file: fsync of the temp file
    "manifest.rename",   // RunManifest::write_file: rename over the manifest
    "trace.read",        // RateTrace::try_load_file: trace ingestion
    "solve.level",       // FluidQueueSolver: start of each refinement level
    "sweep.cell",        // run_sweep_cells: start of each computed cell
};

struct ArmedSpec {
  FailMode mode = FailMode::kOff;
  std::size_t arg = 0;        ///< torn_write bytes / delay milliseconds.
  std::size_t fire_on = 0;    ///< 1-based hit index to fire on; 0 = every hit.
  std::size_t hits = 0;       ///< Hits seen since arming.
};

struct State {
  std::mutex mu;
  std::map<std::string, ArmedSpec, std::less<>> armed;
  std::set<std::string, std::less<>> seen;  ///< Sites that reported a hit.
  bool env_checked = false;
};

State& state() {
  static State s;
  return s;
}

[[noreturn]] void bad_spec(std::string_view spec, const std::string& why) {
  throw lrd::ConfigError(lrd::make_diagnostics(
      lrd::ErrorCategory::kInvalidConfig, "core.failpoint",
      "failpoint spec is site=mode[:arg][@count], comma-separated",
      why + " in \"" + std::string(spec) + "\""));
}

/// Parses a non-negative integer; returns false on any non-digit.
bool parse_count(std::string_view text, std::size_t& out) {
  if (text.empty() || text.size() > 9) return false;
  out = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
    out = out * 10 + static_cast<std::size_t>(ch - '0');
  }
  return true;
}

/// Duration argument of a delay spec: "50ms", "2s", or bare milliseconds.
bool parse_delay_ms(std::string_view text, std::size_t& out) {
  std::size_t scale = 1;
  if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    text.remove_suffix(2);
  } else if (text.size() > 1 && text.back() == 's') {
    text.remove_suffix(1);
    scale = 1000;
  }
  if (!parse_count(text, out)) return false;
  out *= scale;
  return true;
}

void arm_one(std::string_view spec, std::string_view entry, State& s) {
  const auto eq = entry.find('=');
  if (eq == std::string_view::npos || eq == 0)
    bad_spec(spec, "missing '=' separator");
  const std::string site(entry.substr(0, eq));
  std::string_view rest = entry.substr(eq + 1);

  ArmedSpec armed;
  if (const auto at = rest.rfind('@'); at != std::string_view::npos) {
    if (!parse_count(rest.substr(at + 1), armed.fire_on) || armed.fire_on == 0)
      bad_spec(spec, "bad @count for site " + site);
    rest = rest.substr(0, at);
  }
  std::string_view arg;
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    arg = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }

  if (rest == "io_error") {
    armed.mode = FailMode::kIoError;
  } else if (rest == "exception") {
    armed.mode = FailMode::kException;
  } else if (rest == "torn_write") {
    armed.mode = FailMode::kTornWrite;
    if (!arg.empty() && !parse_count(arg, armed.arg))
      bad_spec(spec, "bad torn_write byte count for site " + site);
  } else if (rest == "delay") {
    armed.mode = FailMode::kDelay;
    if (arg.empty() || !parse_delay_ms(arg, armed.arg))
      bad_spec(spec, "delay needs a duration (e.g. delay:50ms) for site " + site);
  } else if (rest == "crash" || rest == "crash-sim") {
    armed.mode = FailMode::kCrash;
  } else {
    bad_spec(spec, "unknown mode \"" + std::string(rest) + "\" for site " + site);
  }
  s.armed[site] = armed;
}

void arm_locked(std::string_view spec, State& s) {
  std::size_t start = 0;
  while (start <= spec.size()) {
    auto end = spec.find(',', start);
    if (end == std::string_view::npos) end = spec.size();
    const std::string_view entry = spec.substr(start, end - start);
    if (!entry.empty()) arm_one(spec, entry, s);
    start = end + 1;
  }
}

bool arm_from_env_locked(State& s) {
  s.env_checked = true;
  const char* env = std::getenv("LRDQ_FAILPOINTS");
  if (env == nullptr || *env == '\0') return false;
  arm_locked(env, s);
  return true;
}

}  // namespace

FailAction failpoint_hit(std::string_view site) {
  State& s = state();
  FailAction action;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (!s.env_checked) arm_from_env_locked(s);
    s.seen.emplace(site);
    const auto it = s.armed.find(site);
    if (it == s.armed.end()) return {};
    ArmedSpec& armed = it->second;
    ++armed.hits;
    if (armed.fire_on != 0 && armed.hits != armed.fire_on) return {};
    action.mode = armed.mode;
    action.arg = armed.arg;
  }
  // Record the fire BEFORE the mode executes: when the mode is a crash
  // the flight-recorder tail in the dumped bundle must already show
  // which site killed the process.
  if (action.fired())
    obs::flight::record(obs::flight::EventKind::kFailpoint, site,
                        static_cast<std::uint64_t>(action.mode));
  // Centralized modes run outside the lock: a sleeping or throwing
  // failpoint must not serialize unrelated sites behind it.
  switch (action.mode) {
    case FailMode::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(action.arg));
      return action;
    case FailMode::kException:
      throw lrd::DataError(lrd::make_diagnostics(
          lrd::ErrorCategory::kIo, "core.failpoint",
          "no fault injected at " + std::string(site),
          "injected exception at failpoint " + std::string(site)));
    case FailMode::kCrash:
      throw CrashSimulated{std::string(site)};
    default:
      return action;  // kOff / kIoError / kTornWrite: the site decides.
  }
}

void failpoint_arm(std::string_view spec) {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  arm_locked(spec, s);
}

bool failpoint_arm_from_env() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return arm_from_env_locked(s);
}

void failpoint_disarm_all() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed.clear();
}

std::vector<std::string> failpoint_sites() {
  State& s = state();
  std::vector<std::string> out(std::begin(kInstrumentedSites), std::end(kInstrumentedSites));
  {
    std::lock_guard<std::mutex> lock(s.mu);
    out.insert(out.end(), s.seen.begin(), s.seen.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lrd::core

#endif  // LRD_FAILPOINTS_ENABLED
