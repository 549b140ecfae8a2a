// Regression tests for the CLI plumbing (tools/cli_common.hpp): count
// flags reject values that are not a count, an explicit flag must always
// beat its env-var fallback, and an explicitly empty flag value must
// disable the feature outright even when the env var is set. These
// resolutions feed every lrdq_* tool.
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli_common.hpp"
#include "obs/bundle.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace {

using namespace lrd;

/// Builds cli::Args from a flag list, with argv[0] supplied.
cli::Args make_args(std::vector<std::string> tokens,
                    std::vector<std::string> known = {},
                    std::vector<std::string> flags = {}) {
  std::vector<char*> argv;
  static std::vector<std::string> storage;  // keep c_str()s alive per call
  storage = std::move(tokens);
  storage.insert(storage.begin(), "lrd_tests");
  argv.reserve(storage.size());
  for (auto& s : storage) argv.push_back(s.data());
  return cli::Args(static_cast<int>(argv.size()), argv.data(), std::move(known),
                   std::move(flags));
}

/// Scoped env var: sets on construction, restores on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.empty())
      ::unsetenv(name_.c_str());
    else
      ::setenv(name_.c_str(), saved_.c_str(), 1);
  }

 private:
  std::string name_;
  std::string saved_;
};

TEST(CliArgs, GetSizeRejectsWhatIsNotACount) {
  EXPECT_EQ(make_args({"--max-bins", "4096"}, {"max-bins"}).get_size("max-bins", 1), 4096u);
  EXPECT_EQ(make_args({}, {"max-bins"}).get_size("max-bins", 7), 7u);
  for (const char* bad : {"1e300", "18446744073709551616", "-1", "2.5", "nan"})
    EXPECT_THROW(make_args({"--max-bins", bad}, {"max-bins"}).get_size("max-bins", 1),
                 std::invalid_argument)
        << bad;
}

class ForensicsPrecedence : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (!obs::kObsEnabled) GTEST_SKIP() << "obs layer compiled out";
    dir_ = std::filesystem::temp_directory_path() /
           ("lrd-cli-" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    obs::EventLog::global().close();
    obs::bundle::reset_for_tests();
    obs::profiler::stop();
    obs::profiler::reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  std::string path(const char* leaf) const { return (dir_ / leaf).string(); }

  std::filesystem::path dir_;
};

TEST_F(ForensicsPrecedence, ExplicitAccessLogFlagBeatsTheEnvVar) {
  const std::string env_log = path("env.jsonl");
  const std::string flag_log = path("flag.jsonl");
  ScopedEnv env("LRDQ_ACCESS_LOG", env_log.c_str());

  const cli::Args args = make_args({"--access-log", flag_log});
  const cli::ForensicsSetup setup = cli::setup_forensics(args, "lrd_tests");
  EXPECT_EQ(setup.access_log, flag_log);
  EXPECT_TRUE(obs::EventLog::global().active());
  obs::EventLog::global().close();
  EXPECT_TRUE(std::filesystem::exists(flag_log)) << "the flag's path was opened";
  EXPECT_FALSE(std::filesystem::exists(env_log)) << "the env path was never touched";
}

TEST_F(ForensicsPrecedence, EnvVarAppliesOnlyWhenTheFlagIsAbsent) {
  const std::string env_log = path("env_only.jsonl");
  ScopedEnv env("LRDQ_ACCESS_LOG", env_log.c_str());

  const cli::ForensicsSetup setup = cli::setup_forensics(make_args({}), "lrd_tests");
  EXPECT_EQ(setup.access_log, env_log);
  EXPECT_TRUE(obs::EventLog::global().active());
}

TEST_F(ForensicsPrecedence, ExplicitlyEmptyFlagDisablesDespiteTheEnvVar) {
  ScopedEnv log_env("LRDQ_ACCESS_LOG", path("ignored.jsonl").c_str());
  ScopedEnv dump_env("LRDQ_DUMP_DIR", path("ignored-dumps").c_str());
  ScopedEnv prof_env("LRDQ_PROFILE", path("ignored.prof").c_str());

  const cli::Args args =
      make_args({"--access-log=", "--dump-dir=", "--profile-out="});
  const cli::ForensicsSetup setup = cli::setup_forensics(args, "lrd_tests");
  EXPECT_TRUE(setup.access_log.empty());
  EXPECT_TRUE(setup.dump_dir.empty());
  EXPECT_TRUE(setup.profile_path.empty());
  EXPECT_FALSE(obs::EventLog::global().active());
  EXPECT_FALSE(obs::profiler::running());
  EXPECT_FALSE(std::filesystem::exists(path("ignored-dumps")));
}

TEST_F(ForensicsPrecedence, ExplicitDumpDirAndProfileBeatTheirEnvVars) {
  ScopedEnv dump_env("LRDQ_DUMP_DIR", path("env-dumps").c_str());
  ScopedEnv prof_env("LRDQ_PROFILE", path("env.prof").c_str());

  const std::string flag_dumps = path("flag-dumps");
  const std::string flag_prof = path("flag.prof");
  const cli::Args args =
      make_args({"--dump-dir", flag_dumps, "--profile-out", flag_prof});
  const cli::ForensicsSetup setup = cli::setup_forensics(args, "lrd_tests");
  EXPECT_EQ(setup.dump_dir, flag_dumps);
  EXPECT_EQ(setup.profile_path, flag_prof);
  EXPECT_TRUE(obs::profiler::running());

  // finish_forensics stops the profiler and writes the flag's path.
  cli::finish_forensics(setup);
  EXPECT_FALSE(obs::profiler::running());
  EXPECT_TRUE(std::filesystem::exists(flag_prof));
  EXPECT_FALSE(std::filesystem::exists(path("env.prof")));
}

}  // namespace
