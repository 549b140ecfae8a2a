#include "obs/bundle.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <mutex>
#include <system_error>

#include "obs/clock.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/ring.hpp"
#include "obs/version.hpp"

namespace lrd::obs::bundle {

namespace {

// Everything the crash path touches is pre-rendered into fixed static
// storage by configure(): the handler formats paths and the manifest
// with the signal-safe formatters of obs/ring.hpp and calls only
// mkdir/open/write/time/signal — no allocation, no stdio, no locks.
constexpr std::size_t kPathMax = 768;
constexpr std::size_t kConfigMax = 8192;
/// Flight-tail events written per ring on the crash path (the stack
/// buffer in the handler; the normal path dumps whole rings).
constexpr std::size_t kCrashTailPerRing = 256;

char g_dir[kPathMax];
char g_crash_dir[kPathMax];
char g_tool[64];
char g_build_json[768];
char g_config_json[kConfigMax];
std::atomic<bool> g_configured{false};
std::atomic<bool> g_handlers_installed{false};
std::atomic<bool> g_in_crash{false};
std::atomic<int> g_seq{0};
std::atomic<double> g_last_incident_ms{-1e18};
std::size_t g_min_incident_interval_ms = 5000;

std::mutex g_mu;  // configure + provider + non-crash dumps
std::function<std::string()> g_cache_provider;

const int kCrashSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL};

const char* signal_name(int sig) noexcept {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
  }
  return "SIG?";
}

bool write_all(int fd, const char* data, std::size_t n) noexcept {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

/// Creates (or truncates) `<dir>/<name>` for writing; -1 on failure.
int open_in(const char* dir, const char* name) noexcept {
  char path[kPathMax + 128];  // room for a dump dir's "/<tool>-<pid>-<n>"
  return ::open(SafeLine(path, sizeof path).str(dir).ch('/').str(name).c_str(),
                O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

bool write_in(const char* dir, const char* name, std::string_view data) noexcept {
  const int fd = open_in(dir, name);
  if (fd < 0) return false;
  const bool ok = write_all(fd, data.data(), data.size());
  ::close(fd);
  return ok;
}

/// Writes the manifest for a bundle at `dir`. `signal` < 0 means a
/// non-crash dump (metrics.json and maybe cache.json are present).
bool write_manifest(const char* dir, const char* reason, int sig, bool with_cache) noexcept {
  char body[1024];
  SafeLine m(body, sizeof body);
  m.str("{\"schema\": \"lrd-bundle-v1\", \"version\": 1, \"tool\": \"").str(g_tool);
  m.str("\", \"reason\": \"").str(reason);
  m.str("\", \"crash\": ").str(sig >= 0 ? "true" : "false");
  if (sig >= 0) m.str(", \"signal\": ").u64(static_cast<std::uint64_t>(sig));
  m.str(", \"pid\": ").u64(static_cast<std::uint64_t>(::getpid()));
  m.str(", \"timestamp_unix\": ").u64(static_cast<std::uint64_t>(::time(nullptr)));
  // Nonzero means the flight or profile tail is incomplete: a thread
  // refused a flight registration records nothing, ever.
  m.str(", \"flight_dropped\": ").u64(flight::dropped());
  m.str(", \"profiler_dropped\": ").u64(profiler::dropped());
  m.str(", \"files\": [\"bundle.json\", \"flight.jsonl\", "
        "\"profile.jsonl\", \"build.json\", \"config.json\"");
  if (sig < 0) {
    m.str(", \"metrics.json\"");
    if (with_cache) m.str(", \"cache.json\"");
  }
  m.str("]}\n");
  return write_in(dir, "bundle.json", {body, m.size()});
}

/// Writes one JSON line per element of every ring's tail to `fd`:
/// `read(i, buf, max, &tid)` copies ring i's newest elements (atomic
/// loads into `buf`), `format(element, tid, line, cap)` renders one.
template <typename T, typename Read, typename Format>
bool write_tails(int fd, T* buf, std::size_t max, std::size_t rings, Read read,
                 Format format) noexcept {
  char line[512];
  for (std::size_t i = 0; i < rings; ++i) {
    std::uint32_t tid = 0;
    const std::size_t count = read(i, buf, max, &tid);
    for (std::size_t k = 0; k < count; ++k) {
      std::size_t m = format(buf[k], tid, line, sizeof line - 1);
      if (m == 0) continue;
      line[m++] = '\n';
      if (!write_all(fd, line, m)) return false;
    }
  }
  return true;
}

/// The crash-path flight dump: the rings' tails plus a synthesized
/// crash_signal event, so the triggering context and the cause land in
/// one file.
void write_crash_flight(const char* dir, int sig) noexcept {
  const int fd = open_in(dir, "flight.jsonl");
  if (fd < 0) return;
  flight::Event events[kCrashTailPerRing];
  if (write_tails(fd, events, kCrashTailPerRing, flight::ring_count(), flight::read_ring,
                  flight::format_event_jsonl)) {
    flight::Event crash{};
    crash.ts_us = process_uptime_us();
    crash.kind = static_cast<std::uint16_t>(flight::EventKind::kCrashSignal);
    crash.a = static_cast<std::uint64_t>(sig);
    copy_json_safe(crash.tag, sizeof crash.tag, signal_name(sig));
    char line[352];
    std::size_t m = flight::format_event_jsonl(crash, 0, line, sizeof line - 1);
    if (m != 0) {
      line[m++] = '\n';
      write_all(fd, line, m);
    }
  }
  ::close(fd);
}

/// Profile-tail samples written per ring on the crash path.
constexpr std::size_t kCrashProfileTailPerRing = 128;

/// The crash-path profile dump: raw per-sample lines (hex frames,
/// count 1), each carrying the query id that was active when the
/// sample fired — so a crash bundle shows what the process was
/// executing, attributed to the query that drove it there.
void write_crash_profile(const char* dir) noexcept {
  const int fd = open_in(dir, "profile.jsonl");
  if (fd < 0) return;
  static profiler::Sample samples[kCrashProfileTailPerRing];  // too big for the signal stack
  write_tails(fd, samples, kCrashProfileTailPerRing, profiler::ring_count(), profiler::read_ring,
              profiler::format_sample_jsonl);
  ::close(fd);
}

void restore_and_reraise(int sig) noexcept {
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

extern "C" void crash_handler(int sig) {
  // One dump per process: a fault inside the handler (or a second
  // signal on another thread) goes straight to the default action.
  bool expected = false;
  if (!g_in_crash.compare_exchange_strong(expected, true)) {
    restore_and_reraise(sig);
    return;
  }
  if (g_configured.load(std::memory_order_acquire)) {
    ::mkdir(g_dir, 0755);  // EEXIST is fine
    if (::mkdir(g_crash_dir, 0755) == 0 || errno == EEXIST) {
      char reason[32];
      write_crash_flight(g_crash_dir, sig);
      write_crash_profile(g_crash_dir);
      write_in(g_crash_dir, "build.json", g_build_json);
      write_in(g_crash_dir, "config.json", g_config_json);
      write_manifest(g_crash_dir,
                     SafeLine(reason, sizeof reason).str("signal:").str(signal_name(sig)).c_str(),
                     sig, false);
    }
  }
  restore_and_reraise(sig);
}

}  // namespace

void configure(const Config& cfg) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_configured.store(false, std::memory_order_release);
  if (cfg.dir.empty()) return;

  // Anchor a relative dump dir now: bundle paths are handed to clients
  // (the serve `dump` op) that run in a different cwd, and the crash
  // handler must not depend on where the process has chdir'd to since.
  std::string dir = cfg.dir;
  if (dir[0] != '/') {
    std::error_code ec;
    if (const auto abs = std::filesystem::absolute(dir, ec); !ec) abs.string().swap(dir);
  }

  // Headroom for the "/crash-<pid>" suffix appended below.
  copy_json_safe(g_dir, sizeof g_dir - 64, dir);
  copy_json_safe(g_tool, sizeof g_tool, cfg.tool.empty() ? "lrdq" : cfg.tool);
  SafeLine(g_crash_dir, sizeof g_crash_dir)
      .str(g_dir)
      .str("/crash-")
      .u64(static_cast<std::uint64_t>(::getpid()))
      .c_str();
  {
    char git[128], bt[64], cc[128];
    copy_json_safe(git, sizeof git, git_describe());
    copy_json_safe(bt, sizeof bt, build_type());
    copy_json_safe(cc, sizeof cc, compiler());
    SafeLine(g_build_json, sizeof g_build_json)
        .str("{\"schema\": \"lrd-build-v1\", \"tool\": \"").str(g_tool)
        .str("\", \"git\": \"").str(git)
        .str("\", \"build_type\": \"").str(bt)
        .str("\", \"compiler\": \"").str(cc)
        .str("\"}\n")
        .c_str();
  }
  // The config must stay valid JSON in the crash file, so an oversized
  // one is replaced, not truncated mid-token.
  if (cfg.config_json.size() + 2 < kConfigMax) {
    std::memcpy(g_config_json, cfg.config_json.data(), cfg.config_json.size());
    g_config_json[cfg.config_json.size()] = '\n';
    g_config_json[cfg.config_json.size() + 1] = '\0';
  } else {
    std::strcpy(g_config_json, "{\"truncated\": true}\n");
  }
  g_min_incident_interval_ms = cfg.min_incident_interval_ms;

  // Pin the uptime epoch now: the handler reads the function-local
  // static inside process_uptime_us(), which must already exist.
  (void)process_uptime_us();

  if (cfg.install_crash_handler && !g_handlers_installed.exchange(true)) {
    struct sigaction sa{};
    sa.sa_handler = crash_handler;
    sigemptyset(&sa.sa_mask);
    for (const int sig : kCrashSignals) ::sigaction(sig, &sa, nullptr);
  }
  g_configured.store(true, std::memory_order_release);
}

bool configured() noexcept { return g_configured.load(std::memory_order_acquire); }

void set_cache_stats_provider(std::function<std::string()> provider) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_cache_provider = std::move(provider);
}

std::string dump(std::string_view reason) {
  if (!configured()) return "";
  std::lock_guard<std::mutex> lock(g_mu);

  // The dump request itself is part of the story the bundle tells.
  flight::record(flight::EventKind::kDump, reason);

  char sane_reason[64];
  copy_json_safe(sane_reason, sizeof sane_reason, reason);

  std::string dir(g_dir);
  dir += "/";
  dir += g_tool;
  dir += "-";
  dir += std::to_string(::getpid());
  dir += "-";
  dir += std::to_string(g_seq.fetch_add(1));
  ::mkdir(g_dir, 0755);
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) return "";

  if (!write_in(dir.c_str(), "flight.jsonl", flight::to_jsonl())) return "";
  // Folded profile of whatever the sampler has seen; empty when the
  // profiler never ran — the file is still written so the manifest's
  // file list holds.
  write_in(dir.c_str(), "profile.jsonl", profiler::to_jsonl());
  write_in(dir.c_str(), "build.json", g_build_json);
  write_in(dir.c_str(), "config.json", g_config_json);
  write_in(dir.c_str(), "metrics.json", Registry::global().to_json() + "\n");
  const bool with_cache = static_cast<bool>(g_cache_provider);
  if (with_cache) write_in(dir.c_str(), "cache.json", g_cache_provider() + "\n");
  if (!write_manifest(dir.c_str(), sane_reason, -1, with_cache)) return "";
  return dir;
}

std::string dump_incident(std::string_view reason) {
  if (!configured()) return "";
  const double now_ms = process_uptime_us() / 1e3;
  double last = g_last_incident_ms.load(std::memory_order_relaxed);
  do {
    if (now_ms - last < static_cast<double>(g_min_incident_interval_ms)) return "";
  } while (!g_last_incident_ms.compare_exchange_weak(last, now_ms, std::memory_order_relaxed));
  return dump(reason);
}

void reset_for_tests() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_configured.store(false, std::memory_order_release);
  g_cache_provider = nullptr;
  g_seq.store(0, std::memory_order_relaxed);
  g_last_incident_ms.store(-1e18, std::memory_order_relaxed);
}

}  // namespace lrd::obs::bundle
