// Tests for the deterministic fault-injection framework (core/failpoint)
// and the crash-recovery guarantees it exists to prove: every registered
// failpoint is armed as a crash in turn, the persistence layer is left in
// whatever state the "crash" produced, and a warm rerun must still yield
// a bit-identical loss surface.
//
// The whole file is skipped unless the build sets -DLRD_ENABLE_FAILPOINTS=ON;
// in the default build every failpoint call is a compiled-out no-op.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/failpoint.hpp"
#include "core/status.hpp"
#include "runtime/cache.hpp"
#include "runtime/manifest.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace lrd;

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!core::kFailpointsEnabled)
      GTEST_SKIP() << "failpoints compiled out; configure with -DLRD_ENABLE_FAILPOINTS=ON";
    core::failpoint_disarm_all();
  }
  void TearDown() override { core::failpoint_disarm_all(); }
};

// --------------------------------------------------------------- spec grammar

TEST_F(FailpointTest, SpecGrammarArmsCountsAndModes) {
  core::failpoint_arm("test.site=io_error@2");
  EXPECT_FALSE(core::failpoint_hit("test.site").fired()) << "@2 must not fire on hit 1";
  EXPECT_TRUE(core::failpoint_hit("test.site").io_error());
  EXPECT_FALSE(core::failpoint_hit("test.site").fired()) << "@2 must not fire on hit 3";

  core::failpoint_arm("test.torn=torn_write:7");
  const auto torn = core::failpoint_hit("test.torn");
  EXPECT_TRUE(torn.torn_write());
  EXPECT_EQ(torn.torn_bytes(100), 7u);
  EXPECT_EQ(torn.torn_bytes(4), 4u) << "never keep more bytes than the record has";
  core::failpoint_arm("test.torn_half=torn_write");
  EXPECT_EQ(core::failpoint_hit("test.torn_half").torn_bytes(10), 5u) << "default: half";

  // Comma-separated multi-site spec, exactly as LRDQ_FAILPOINTS carries it.
  core::failpoint_arm("test.one=io_error,test.two=torn_write:3@1");
  EXPECT_TRUE(core::failpoint_hit("test.one").io_error());
  EXPECT_TRUE(core::failpoint_hit("test.two").torn_write());
  EXPECT_FALSE(core::failpoint_hit("test.two").fired());
}

TEST_F(FailpointTest, MalformedSpecsThrowConfigError) {
  EXPECT_THROW(core::failpoint_arm("nonsense"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("=io_error"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=frobnicate"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=io_error@0"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=io_error@x"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=delay"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=delay:banana"), ConfigError);
  EXPECT_THROW(core::failpoint_arm("site=torn_write:notbytes"), ConfigError);
}

TEST_F(FailpointTest, ExceptionModeThrowsStructuredDataError) {
  core::failpoint_arm("test.exc=exception");
  try {
    core::failpoint_hit("test.exc");
    FAIL() << "armed exception failpoint did not throw";
  } catch (const DataError& e) {
    ASSERT_NE(diagnostics_of(e), nullptr);
    EXPECT_EQ(diagnostics_of(e)->category, ErrorCategory::kIo);
    EXPECT_NE(std::string(e.what()).find("test.exc"), std::string::npos);
  }
}

TEST_F(FailpointTest, CrashModeEscapesStdExceptionHandlers) {
  core::failpoint_arm("test.crash=crash-sim");
  bool crashed = false;
  try {
    try {
      core::failpoint_hit("test.crash");
    } catch (const std::exception&) {
      FAIL() << "CrashSimulated must not be absorbed by catch (const std::exception&)";
    }
  } catch (const core::CrashSimulated& c) {
    crashed = true;
    EXPECT_EQ(c.site, "test.crash");
  }
  EXPECT_TRUE(crashed);
}

TEST_F(FailpointTest, DelayModeSleeps) {
  core::failpoint_arm("test.delay=delay:30ms");
  const auto t0 = std::chrono::steady_clock::now();
  // The sleep happens inside failpoint_hit; the returned action asks
  // nothing further of the site.
  const auto action = core::failpoint_hit("test.delay");
  EXPECT_FALSE(action.io_error());
  EXPECT_FALSE(action.torn_write());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 25);
}

TEST_F(FailpointTest, EnvVariableArmsEveryTool) {
  ::setenv("LRDQ_FAILPOINTS", "test.env=io_error", 1);
  EXPECT_TRUE(core::failpoint_arm_from_env());
  ::unsetenv("LRDQ_FAILPOINTS");
  EXPECT_TRUE(core::failpoint_hit("test.env").io_error());
}

TEST_F(FailpointTest, RegistryListsEveryInstrumentedSite) {
  const auto sites = core::failpoint_sites();
  for (const char* site :
       {"cache.load", "cache.append", "cache.compact", "manifest.write", "manifest.fsync",
        "manifest.rename", "trace.read", "solve.level", "sweep.cell"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), site), sites.end())
        << "instrumented site " << site << " missing from the registry";
  }
}

// ------------------------------------------------------- targeted recovery

TEST_F(FailpointTest, TornCacheAppendIsQuarantinedAndCompactedOnReload) {
  const std::string dir = ::testing::TempDir() + "lrd_fp_cache_torn";
  std::filesystem::remove_all(dir);
  {
    runtime::SolverCache cache(dir);
    cache.store(1, 0.5);
    core::failpoint_arm("cache.append=torn_write:10@1");
    cache.store(2, 0.25);  // append truncated mid-key: a crash mid-write
    core::failpoint_disarm_all();
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt, 1u);
  ASSERT_TRUE(reopened.lookup(1).has_value());
  EXPECT_EQ(*reopened.lookup(1), 0.5);
  EXPECT_FALSE(reopened.lookup(2).has_value()) << "torn record is lost, not misread";
  EXPECT_GE(reopened.stats().compactions, 1u) << "corruption triggers a clean rewrite";
  runtime::SolverCache clean(dir);
  EXPECT_EQ(clean.stats().corrupt, 0u);
  EXPECT_EQ(clean.stats().loaded, 1u);
}

TEST_F(FailpointTest, ManifestWriteFailuresReportFalseAndCleanUp) {
  runtime::RunManifest manifest;
  manifest.set_tool("test");
  const std::string path = ::testing::TempDir() + "lrd_fp_manifest.json";
  std::remove(path.c_str());
  for (const char* spec : {"manifest.write=io_error@1", "manifest.rename=io_error@1"}) {
    core::failpoint_disarm_all();
    core::failpoint_arm(spec);
    EXPECT_FALSE(manifest.write_file(path)) << spec;
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp")) << spec;
  }
  core::failpoint_disarm_all();
  EXPECT_TRUE(manifest.write_file(path));
}

// ------------------------------------------------------------- torture test

core::ModelSweepConfig torture_config() {
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.85;
  cfg.mean_epoch = 0.05;
  cfg.utilization = 0.8;
  cfg.solver.target_relative_gap = 0.5;
  return cfg;
}

const std::vector<double> kTortureBuffers{0.05, 0.1};
const std::vector<double> kTortureCutoffs{0.1, 1.0};

std::string csv_of(const core::SweepTable& t) {
  std::ostringstream os;
  t.print_csv(os);
  return os.str();
}

/// One "program run" against persistent state rooted at `dir`: trace
/// ingestion, cache open, cached + manifested sweep (which resumes from
/// whatever the disk cache kept), manifest write, cache compaction.
/// Touches every instrumented failpoint site that the model-sweep
/// pipeline can reach.
core::SweepTable run_scenario(const dist::Marginal& m, const std::string& dir,
                              const std::string& trace_path) {
  (void)traffic::RateTrace::try_load_file(trace_path);  // trace.read
  runtime::SolverCache cache(dir);                      // cache.load
  runtime::RunManifest manifest;
  core::SweepRunOptions opts;
  opts.cache = &cache;
  opts.manifest = &manifest;
  auto table =
      core::loss_vs_buffer_and_cutoff(m, torture_config(), kTortureBuffers, kTortureCutoffs, opts);
  (void)manifest.write_file(dir + "/manifest.json");  // manifest.{write,fsync,rename}
  (void)cache.compact();                              // cache.compact
  return table;
}

TEST_F(FailpointTest, CrashMidSweepResumesFromTheDiskCacheBitIdentically) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const std::string baseline_csv =
      csv_of(core::loss_vs_buffer_and_cutoff(m, torture_config(), kTortureBuffers,
                                             kTortureCutoffs));
  const std::string dir = ::testing::TempDir() + "lrd_fp_crash_resume";
  std::filesystem::remove_all(dir);

  // One worker, so the crash on the third cell lands after exactly two
  // cells were stored (appended and fsynced) to the disk tier.
  core::SweepRunOptions opts;
  opts.threads = 1;
  core::failpoint_arm("sweep.cell=crash@3");
  {
    runtime::SolverCache cache(dir);
    opts.cache = &cache;
    EXPECT_THROW((void)core::loss_vs_buffer_and_cutoff(m, torture_config(), kTortureBuffers,
                                                       kTortureCutoffs, opts),
                 core::CrashSimulated);
  }
  core::failpoint_disarm_all();

  runtime::SolverCache cache(dir);
  EXPECT_EQ(cache.stats().loaded, 2u);
  EXPECT_EQ(cache.stats().corrupt, 0u);
  runtime::RunManifest manifest;
  opts.cache = &cache;
  opts.manifest = &manifest;
  const auto resumed = core::loss_vs_buffer_and_cutoff(m, torture_config(), kTortureBuffers,
                                                       kTortureCutoffs, opts);
  EXPECT_EQ(csv_of(resumed), baseline_csv);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kCache), 2u);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kComputed), 2u);
}

TEST_F(FailpointTest, TortureEveryRegisteredSiteThenWarmRerunIsBitIdentical) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const std::string baseline_csv =
      csv_of(core::loss_vs_buffer_and_cutoff(m, torture_config(), kTortureBuffers,
                                             kTortureCutoffs));
  const std::string trace_path = ::testing::TempDir() + "lrd_fp_trace.txt";
  {
    std::ofstream f(trace_path, std::ios::trunc);
    f << "0.01 3\n1.0 2.0 3.0\n";
  }

  const auto sites = core::failpoint_sites();
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    // Synthetic sites from the grammar tests above (registered via their
    // hits) are not part of the library's failure surface.
    if (site.rfind("test.", 0) == 0) continue;
    SCOPED_TRACE("crash injected at " + site);
    const std::string dir = ::testing::TempDir() + "lrd_fp_torture_" + site;
    std::filesystem::remove_all(dir);

    core::failpoint_disarm_all();
    core::failpoint_arm(site + "=crash@1");
    bool crashed = false;
    try {
      (void)run_scenario(m, dir, trace_path);
    } catch (const core::CrashSimulated& c) {
      crashed = true;
      EXPECT_EQ(c.site, site);
    } catch (...) {
      // A crash escaping through library cleanup may be rewrapped; any
      // abrupt exit is a valid "kill" for recovery purposes.
      crashed = true;
    }
    core::failpoint_disarm_all();

    // Sites outside this scenario's reach never fire; that is fine — the
    // recovery contract below must hold either way.
    const std::string csv = csv_of(run_scenario(m, dir, trace_path));
    EXPECT_EQ(csv, baseline_csv) << "warm rerun diverged after crash at " << site
                                 << (crashed ? "" : " (site never fired)");
  }
}

}  // namespace
