#include "common.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "harness.hpp"
#include "obs/json.hpp"

extern char** environ;

namespace lrd::perfbench {

void Outcome::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  problems.push_back(what);
}

void Outcome::add(std::string name, double value, std::string unit, std::size_t samples,
                  MetricKind kind) {
  metrics.push_back({std::move(name), value, std::move(unit), samples, kind});
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double windowed_quantile(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const auto& w : windows)
    if (!w.empty()) per_window.push_back(quantile(w, q));
  return median(std::move(per_window));
}

std::size_t sample_count(const std::vector<std::vector<double>>& windows) {
  std::size_t n = 0;
  for (const auto& w : windows) n += w.size();
  return n;
}

namespace {

std::vector<char*> c_argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const auto& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

int decode_status(int status) {
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

/// Reaps `pid`, retrying on EINTR, and fills code + CPU time. (Not the
/// peak RSS: a spawned child's ru_maxrss starts at its parent's.)
void reap(pid_t pid, ChildExit& exit) {
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  exit.code = decode_status(status);
  exit.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Peak resident set of a live process (VmHWM), in MB; 0 once it is gone.
double peak_rss_mb(pid_t pid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/status").c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace

ChildExit run_child(const std::vector<std::string>& argv) {
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) throw std::runtime_error("pipe2 failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, pipefd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY, 0);
  ChildExit exit;
  const Clock::time_point t0 = Clock::now();
  pid_t pid = -1;
  auto args = c_argv(argv);
  const int rc = ::posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  ::close(pipefd[1]);
  if (rc != 0) {
    ::close(pipefd[0]);
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  // VmHWM is a high-water mark, so sampling it every 2 ms until the
  // child closes its output gives its peak RSS. Sampling starts after
  // the first wait: the vfork parent may wake before exec has swapped in
  // the child's own address space, when VmHWM is still the parent's.
  char buf[4096];
  for (;;) {
    pollfd p{pipefd[0], POLLIN, 0};
    const int ready = ::poll(&p, 1, 2);
    exit.max_rss_mb = std::max(exit.max_rss_mb, peak_rss_mb(pid));
    if (ready == 0) continue;
    const ssize_t n = ::read(pipefd[0], buf, sizeof buf);
    if (n > 0) exit.out.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  ::close(pipefd[0]);
  reap(pid, exit);
  exit.wall_seconds = seconds_since(t0);
  return exit;
}

Daemon::Daemon(const std::vector<std::string>& argv, const std::string& log_path) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, STDOUT_FILENO, STDERR_FILENO);
  auto args = c_argv(argv);
  start_ = Clock::now();
  const int rc = ::posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
}

Daemon::~Daemon() {
  if (pid_ <= 0) return;
  try {
    stop();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: daemon shutdown: %s\n", e.what());
  }
}

ChildExit Daemon::stop() {
  ChildExit exit;
  if (pid_ <= 0) return exit;
  exit.max_rss_mb = peak_rss_mb(pid_);
  ::kill(pid_, SIGTERM);
  const pid_t pid = pid_;
  pid_ = -1;
  reap(pid, exit);
  exit.wall_seconds = seconds_since(start_);
  return exit;
}

double Daemon::cpu_seconds() const {
  // Fields 14 and 15 of /proc/<pid>/stat: utime and stime in clock ticks.
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid_) + "/stat").c_str(), "r");
  if (f == nullptr) throw std::runtime_error("cannot read the daemon's /proc stat");
  char buf[1024] = {0};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  const std::string stat(buf, n);
  const auto close = stat.rfind(')');  // the command name may hold spaces
  if (close == std::string::npos) throw std::runtime_error("malformed /proc stat");
  unsigned long long utime = 0, stime = 0;
  if (std::sscanf(stat.c_str() + close + 2, "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2)
    throw std::runtime_error("malformed /proc stat");
  return static_cast<double>(utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double self_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

std::string num17(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string join_num17(const std::vector<double>& v, char sep) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += sep;
    out += num17(v[i]);
  }
  return out;
}

namespace {

/// First line of a command's output, or empty when it fails.
std::string command_line(const std::vector<std::string>& argv) {
  try {
    ChildExit e = run_child(argv);
    if (e.code != 0) return {};
    const auto nl = e.out.find('\n');
    return e.out.substr(0, nl);
  } catch (const std::exception&) {
    return {};
  }
}

}  // namespace

std::string provenance_json() {
  using obs::json::escape;
  const bench::EnvFingerprint env = bench::environment_fingerprint();
  // The commit is read at run time: a checkout without git metadata
  // reports null rather than a stale configure-time describe string.
  const std::string sha = command_line({"/usr/bin/env", "git", "rev-parse", "HEAD"});
  std::string dirty = "null";
  if (!sha.empty()) {
    try {
      const ChildExit st =
          run_child({"/usr/bin/env", "git", "status", "--porcelain", "--untracked-files=no"});
      if (st.code == 0) dirty = st.out.empty() ? "false" : "true";
    } catch (const std::exception&) {
    }
  }
  char host[256] = {0};
  if (::gethostname(host, sizeof host - 1) != 0) host[0] = '\0';
  std::string out = "{\"git_sha\": " + (sha.empty() ? std::string("null") : escape(sha));
  out += ", \"git_dirty\": " + dirty;
  out += ", \"git_describe\": " + escape(env.git_describe);
  out += ", \"host\": " + escape(host);
  out += ", \"nproc\": " + std::to_string(env.cpu_count);
  out += ", \"simd\": " + escape(env.simd);
  out += ", \"build_type\": " + escape(env.build_type);
  out += ", \"compiler\": " + escape(env.compiler);
  out += ", \"obs_enabled\": ";
  out += env.obs_enabled ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace lrd::perfbench
