// Tests for the parallel experiment runtime: shared-cursor executor,
// content-addressed solver cache, and resuming a sweep from the cache.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/model.hpp"
#include "numerics/parallel.hpp"
#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/manifest.hpp"

namespace {

using namespace lrd;

void busy_wait(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// ---------------------------------------------------------------- executor

TEST(RuntimeExecutor, CoversEveryIndexOnceUnderImbalancedCosts) {
  // The first block is two orders of magnitude heavier than the rest, so
  // correctness must survive heavy redistribution.
  constexpr std::size_t kN = 512;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  runtime::Executor exec;
  exec.parallel_for(
      kN,
      [&](std::size_t i) {
        if (i < kN / 8) busy_wait(std::chrono::microseconds(200));
        hits[i].fetch_add(1);
      },
      8);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  const auto stats = exec.last_job_stats();
  EXPECT_EQ(stats.tasks, kN);
  EXPECT_GT(stats.participants, 1u);
  EXPECT_EQ(stats.busy_seconds.size(), stats.participants);
}

TEST(RuntimeExecutor, ABlockedTaskNeverStrandsTheRest) {
  // Task 0 blocks until every other task has run. A scheduler that ties
  // indices to the worker holding task 0 (a static partition strands its
  // block-mates) would time the spin out and fail.
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> others{0};
  std::size_t others_while_blocked = 0;
  runtime::Executor exec;
  exec.parallel_for(
      kN,
      [&](std::size_t i) {
        if (i != 0) {
          others.fetch_add(1);
          return;
        }
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (others.load() < kN - 1 && std::chrono::steady_clock::now() < give_up)
          std::this_thread::yield();
        others_while_blocked = others.load();
      },
      2);
  EXPECT_EQ(others_while_blocked, kN - 1) << "tasks were stranded behind the blocked one";
  EXPECT_EQ(exec.last_job_stats().tasks, kN);
}

TEST(RuntimeExecutor, FirstExceptionCancelsRemainingTasks) {
  // The very first task to run throws (whichever worker gets there first,
  // so the test cannot lose a scheduling race on a loaded machine); every
  // task not yet started must then be skipped, not ground through.
  constexpr std::size_t kN = 1000;
  std::atomic<bool> thrown{false};
  std::atomic<std::size_t> executed{0};
  runtime::Executor exec;
  try {
    exec.parallel_for(
        kN,
        [&](std::size_t) {
          if (!thrown.exchange(true)) throw std::runtime_error("boom");
          busy_wait(std::chrono::microseconds(100));
          executed.fetch_add(1);
        },
        4);
    FAIL() << "expected the task exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Only tasks already in flight when the cancel hit may still finish.
  EXPECT_LT(executed.load(), kN / 2) << "cancellation should skip unstarted tasks";
  EXPECT_LT(exec.last_job_stats().tasks, kN);
}

TEST(RuntimeExecutor, SerialPathStopsAtFirstThrow) {
  std::size_t executed = 0;
  EXPECT_THROW(runtime::Executor::global().parallel_for(
                   100,
                   [&](std::size_t i) {
                     if (i == 3) throw std::logic_error("early");
                     ++executed;
                   },
                   1),
               std::logic_error);
  EXPECT_EQ(executed, 3u);
  // The throwing task counts as run, exactly as on the pooled path.
  const auto stats = runtime::Executor::global().last_job_stats();
  EXPECT_EQ(stats.participants, 1u);
  EXPECT_EQ(stats.tasks, 4u);
}

TEST(RuntimeExecutor, NestedParallelForRunsInline) {
  std::atomic<std::size_t> total{0};
  numerics::parallel_for(
      4,
      [&](std::size_t) {
        // A task submitting a nested job must not deadlock on the shared
        // pool; the nested call runs inline on the worker.
        numerics::parallel_for(8, [&](std::size_t) { total.fetch_add(1); }, 4);
      },
      2);
  EXPECT_EQ(total.load(), 4u * 8u);
}

TEST(RuntimeExecutor, HandlesEmptyAndSingleElementJobs) {
  std::atomic<std::size_t> count{0};
  runtime::Executor exec;
  exec.parallel_for(0, [&](std::size_t) { count.fetch_add(1); }, 8);
  EXPECT_EQ(count.load(), 0u);
  exec.parallel_for(1, [&](std::size_t) { count.fetch_add(1); }, 8);
  EXPECT_EQ(count.load(), 1u);
  EXPECT_EQ(exec.last_job_stats().tasks, 1u);
}

// -------------------------------------------------------------- cache keys

TEST(RuntimeCacheKey, CanonicalDoubleEncoding) {
  EXPECT_EQ(runtime::Fnv1a().f64(0.0).digest(), runtime::Fnv1a().f64(-0.0).digest());
  EXPECT_EQ(runtime::Fnv1a().f64(std::nan("1")).digest(),
            runtime::Fnv1a().f64(std::nan("2")).digest());
  EXPECT_NE(runtime::Fnv1a().f64(1.0).digest(), runtime::Fnv1a().f64(2.0).digest());
  // Length prefixes keep concatenations from aliasing.
  EXPECT_NE(runtime::Fnv1a().str("ab").str("c").digest(),
            runtime::Fnv1a().str("a").str("bc").digest());
}

TEST(RuntimeCacheKey, ModelKeyStableAndSensitive) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  // Same distribution listed in a different order: Marginal canonicalizes,
  // so the key must not depend on input order.
  const dist::Marginal permuted({10.0, 2.0, 6.0}, {0.3, 0.3, 0.4});
  core::ModelConfig mc;
  mc.hurst = 0.85;
  mc.mean_epoch = 0.05;
  mc.cutoff = 10.0;
  mc.utilization = 0.8;
  mc.normalized_buffer = 0.2;
  queueing::SolverConfig scfg;

  const auto key = core::model_cell_key(m, mc, scfg);
  // Pinned so that existing --cache-dir files keep hitting: a salt bump or
  // a change to what the key hashes must update this value on purpose.
  EXPECT_EQ(key, 0xd4d8563184051797ULL);
  EXPECT_EQ(key, core::model_cell_key(m, mc, scfg));
  EXPECT_EQ(key, core::model_cell_key(permuted, mc, scfg));

  auto mc2 = mc;
  mc2.normalized_buffer = 0.25;
  EXPECT_NE(key, core::model_cell_key(m, mc2, scfg));
  auto scfg2 = scfg;
  scfg2.target_relative_gap *= 0.5;
  EXPECT_NE(key, core::model_cell_key(m, mc, scfg2));
}

// ------------------------------------------------------------------ cache

TEST(RuntimeCache, HitAndMissAccounting) {
  runtime::SolverCache cache;
  EXPECT_FALSE(cache.lookup(42).has_value());
  cache.store(42, 0.125);
  const auto hit = cache.lookup(42);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0.125);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.loaded, 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.disk_path().empty());
}

TEST(RuntimeCache, DiskTierRoundTripsExactDoubles) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_rt";
  std::remove((dir + "/solver_cache.txt").c_str());
  const double v1 = 1.0 / 3.0, v2 = 4.9406564584124654e-324;
  {
    runtime::SolverCache cache(dir);
    cache.store(7, v1);
    cache.store(9, v2);
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 2u);
  ASSERT_TRUE(reopened.lookup(7).has_value());
  EXPECT_EQ(*reopened.lookup(7), v1);
  ASSERT_TRUE(reopened.lookup(9).has_value());
  EXPECT_EQ(*reopened.lookup(9), v2);
}

TEST(RuntimeCache, SkipsMalformedDiskLines) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_bad";
  std::remove((dir + "/solver_cache.txt").c_str());
  std::remove((dir + "/solver_cache.txt.quarantine").c_str());
  {
    runtime::SolverCache cache(dir);
    cache.store(1, 2.0);
  }
  {
    std::ofstream f(dir + "/solver_cache.txt", std::ios::app);
    f << "this line is garbage\n";
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_TRUE(reopened.lookup(1).has_value());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(RuntimeCache, QuarantinesCorruptRecordsAndCompacts) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_crc";
  std::remove((dir + "/solver_cache.txt").c_str());
  std::remove((dir + "/solver_cache.txt.quarantine").c_str());
  {
    runtime::SolverCache cache(dir);
    cache.store(1, 2.0);
    cache.store(2, 3.0);
  }
  {
    std::ofstream f(dir + "/solver_cache.txt", std::ios::app);
    // A bit-flipped record: well-formed shape, wrong CRC.
    f << "00000000000000ff 1.5 deadbeef\n";
    // A torn append: payload truncated before the CRC. In a v2 file this
    // must NOT be accepted as a legacy 2-token record — its value could
    // be a plausible-looking truncation of the real one.
    f << "00000000000000aa 2.5\n";
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 2u);
  EXPECT_EQ(reopened.stats().corrupt, 2u);
  EXPECT_FALSE(reopened.lookup(0xff).has_value());
  EXPECT_FALSE(reopened.lookup(0xaa).has_value());
  // Corruption triggers an immediate clean rewrite...
  EXPECT_GE(reopened.stats().compactions, 1u);
  // ...and the damaged raw lines land in the quarantine for inspection.
  const std::string q = slurp(reopened.quarantine_path());
  EXPECT_NE(q.find("deadbeef"), std::string::npos);
  EXPECT_NE(q.find("00000000000000aa 2.5"), std::string::npos);
  // A third open sees a healthy file: nothing corrupt, values intact.
  runtime::SolverCache clean(dir);
  EXPECT_EQ(clean.stats().corrupt, 0u);
  EXPECT_EQ(clean.stats().loaded, 2u);
  ASSERT_TRUE(clean.lookup(1).has_value());
  EXPECT_EQ(*clean.lookup(1), 2.0);
}

TEST(RuntimeCache, LegacyHeaderlessFileLoadsWithLastWriteWinning) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_v1";
  std::remove((dir + "/solver_cache.txt").c_str());
  std::remove((dir + "/solver_cache.txt.quarantine").c_str());
  {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream f(dir + "/solver_cache.txt", std::ios::trunc);
    // v1-era file: no header, no CRCs, a duplicated key (append-only
    // reruns did that); the later record must win.
    f << "0000000000000005 1\n";
    f << "0000000000000007 0.25\n";
    f << "0000000000000005 2\n";
  }
  runtime::SolverCache cache(dir);
  EXPECT_EQ(cache.stats().loaded, 3u);
  EXPECT_EQ(cache.stats().duplicates, 1u);
  EXPECT_EQ(cache.stats().corrupt, 0u);
  ASSERT_TRUE(cache.lookup(5).has_value());
  EXPECT_EQ(*cache.lookup(5), 2.0);
  ASSERT_TRUE(cache.lookup(7).has_value());
  EXPECT_EQ(*cache.lookup(7), 0.25);
  // The file was migrated to v2 on load, so a CRC-carrying append cannot
  // turn the legacy records into untrusted 2-field lines of a v2 file.
  cache.store(9, 0.5);
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  EXPECT_EQ(reopened.stats().loaded, 3u);
  ASSERT_TRUE(reopened.lookup(5).has_value());
  EXPECT_EQ(*reopened.lookup(5), 2.0);
}

TEST(RuntimeCache, SaltlessFileIsStampedOnLoadSoASaltBumpStillDropsIt) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_saltless";
  std::filesystem::remove_all(dir);
  {
    runtime::SolverCache cache(dir);
    cache.store(4, 0.5);
  }
  // Damage the salt line so it no longer reads as one.
  const std::string path = dir + "/solver_cache.txt";
  std::string text = slurp(path);
  text.replace(text.find("# salt "), 7, "# sa1t ");
  {
    std::ofstream f(path, std::ios::trunc | std::ios::binary);
    f << text;
  }
  {
    runtime::SolverCache cache(dir);
    EXPECT_EQ(cache.stats().loaded, 1u);
  }
  runtime::SolverCacheConfig bumped;
  bumped.disk_dir = dir;
  bumped.version_salt = "solver-numerics-v2";
  runtime::SolverCache cache(bumped);
  EXPECT_EQ(cache.stats().stale, 1u) << "a record that lost its salt line outlived a bump";
  EXPECT_FALSE(cache.lookup(4).has_value());
}

TEST(RuntimeCache, ExplicitCompactRewritesCleanV2File) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_compact";
  std::remove((dir + "/solver_cache.txt").c_str());
  std::remove((dir + "/solver_cache.txt.quarantine").c_str());
  runtime::SolverCache cache(dir);
  cache.store(9, 0.5);
  cache.store(3, 1.0 / 3.0);
  ASSERT_TRUE(cache.compact());
  EXPECT_EQ(cache.stats().compactions, 1u);
  const std::string text = slurp(dir + "/solver_cache.txt");
  EXPECT_EQ(text.rfind("# lrd-solver-cache v2", 0), 0u) << "compacted file keeps the v2 header";
  // The compacted file reloads bit-exactly, and appends still work on the
  // freshly renamed inode.
  cache.store(11, 0.125);
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 3u);
  EXPECT_EQ(reopened.stats().duplicates, 0u);
  ASSERT_TRUE(reopened.lookup(3).has_value());
  EXPECT_EQ(*reopened.lookup(3), 1.0 / 3.0);
  ASSERT_TRUE(reopened.lookup(11).has_value());
  EXPECT_EQ(*reopened.lookup(11), 0.125);
}

// ---------------------------------------------------- cache: sharded tier

TEST(RuntimeCache, ShardedMultiWriterStressStaysConsistent) {
  // Many writers and readers hammer a bounded memory-only cache with an
  // overlapping key range. Run under TSan this is the striped-locking
  // proof; in any build the final accounting must balance and the
  // eviction policy must hold the capacity bound.
  runtime::SolverCacheConfig cfg;
  cfg.capacity_cost = 64.0;  // default 1.0-cost entries: max 4 per shard
  runtime::SolverCache cache(cfg);

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 4000;
  std::atomic<std::uint64_t> found{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &found, t] {
      std::uint64_t rng = 0x9E3779B97F4A7C15ull * (t + 1);
      for (std::size_t i = 0; i < kOpsPerThread; ++i) {
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t key = (rng >> 33) % 512;  // heavy key overlap
        if ((rng & 3) == 0) {
          cache.store(key, static_cast<double>(key) * 0.5);
        } else if (const auto hit = cache.lookup(key)) {
          // A served value is always the one every writer stores for
          // that key — a torn or cross-key read would fail here.
          if (*hit == static_cast<double>(key) * 0.5) found.fetch_add(1);
          else std::abort();
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const auto stats = cache.stats();
  EXPECT_GT(found.load(), 0u);
  EXPECT_GT(stats.evictions, 0u) << "512 hot keys against capacity 64 must evict";
  EXPECT_LE(cache.size(), 64u) << "eviction holds every shard to its budget";
}

TEST(RuntimeCache, EvictsLeastRecentlyUsedFirstWithinAShard) {
  // Collect keys that land in one shard (shard_for mixes the key, so
  // probe), then overfill that shard and check the eviction order: the
  // oldest untouched key goes first, and a lookup refreshes recency.
  runtime::SolverCacheConfig cfg;
  cfg.capacity_cost = 3.0 * runtime::SolverCache::kShards;  // 3 entries per shard
  runtime::SolverCache cache(cfg);

  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 1; keys.size() < 5; ++k)
    if (((k * 0x9E3779B97F4A7C15ull) >> 60) == 0) keys.push_back(k);

  cache.store(keys[0], 0.0);
  cache.store(keys[1], 1.0);
  cache.store(keys[2], 2.0);           // shard full: {2, 1, 0} MRU->LRU
  ASSERT_TRUE(cache.lookup(keys[0]));  // refresh 0: {0, 2, 1}
  cache.store(keys[3], 3.0);           // evicts 1 (LRU), not 0
  EXPECT_TRUE(cache.lookup(keys[0]).has_value());
  EXPECT_FALSE(cache.lookup(keys[1]).has_value()) << "LRU key evicted";
  EXPECT_TRUE(cache.lookup(keys[2]).has_value());
  EXPECT_TRUE(cache.lookup(keys[3]).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);

  // Cost-weighted: one entry heavier than the whole budget evicts the
  // rest of the shard but stays resident itself (just computed).
  cache.store(keys[4], 4.0, 100.0);
  EXPECT_TRUE(cache.lookup(keys[4]).has_value());
  EXPECT_FALSE(cache.lookup(keys[0]).has_value());
}

TEST(RuntimeCache, DiskTierServesEvictedEntriesAsSecondLevel) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_l2";
  std::filesystem::remove_all(dir);
  runtime::SolverCacheConfig cfg;
  cfg.disk_dir = dir;
  cfg.capacity_cost = 16.0;  // 1 entry per shard: heavy eviction
  runtime::SolverCache cache(cfg);
  for (std::uint64_t k = 1; k <= 64; ++k) cache.store(k, static_cast<double>(k));
  ASSERT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.size(), 16u);

  // Every stored key is still served — evicted ones from the disk tier,
  // counted as disk_hits and promoted back into memory.
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const auto hit = cache.lookup(k);
    ASSERT_TRUE(hit.has_value()) << "key " << k;
    EXPECT_EQ(*hit, static_cast<double>(k));
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 64u);
  EXPECT_GT(stats.disk_hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(RuntimeCache, SaltMismatchDropsPersistedRecordsAsStale) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_salt";
  std::filesystem::remove_all(dir);
  {
    runtime::SolverCacheConfig cfg;
    cfg.disk_dir = dir;
    cfg.version_salt = "solver-numerics-v0";
    runtime::SolverCache cache(cfg);
    cache.store(5, 0.5);
    cache.store(6, 0.75);
  }
  // Same file, new salt: every persisted loss was computed by "other
  // numerics" and must be dropped, and the file compacted clean under
  // the new salt so the drop happens exactly once.
  {
    runtime::SolverCache cache(dir);
    EXPECT_EQ(cache.stats().loaded, 0u);
    EXPECT_EQ(cache.stats().stale, 2u);
    EXPECT_GE(cache.stats().compactions, 1u);
    EXPECT_FALSE(cache.lookup(5).has_value());
    cache.store(7, 1.25);
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().stale, 0u) << "compaction rewrote the salt line";
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_TRUE(reopened.lookup(7).has_value());
}

TEST(RuntimeCache, MigratesV1FileToSaltedV2OnCompact) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_migrate";
  std::filesystem::remove_all(dir);
  {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream f(dir + "/solver_cache.txt", std::ios::trunc);
    f << "000000000000000a 0.5\n";   // v1: no header, no salt, no CRC
    f << "000000000000000b 0.25\n";
    f << "000000000000000c 0.12x5\n";  // damaged mid-value: not a record
  }
  {
    runtime::SolverCache cache(dir);
    EXPECT_EQ(cache.stats().loaded, 2u);
    EXPECT_EQ(cache.stats().corrupt, 1u);
    EXPECT_FALSE(cache.lookup(0xc).has_value()) << "a v1 value with trailing bytes is damaged";
    EXPECT_EQ(cache.stats().stale, 0u) << "a salt-less legacy file is not stale";
    ASSERT_TRUE(cache.compact());
  }
  const std::string text = slurp(dir + "/solver_cache.txt");
  EXPECT_EQ(text.rfind("# lrd-solver-cache v2", 0), 0u);
  EXPECT_NE(text.find(std::string("# salt ") + std::string(runtime::kCacheVersionSalt)),
            std::string::npos)
      << "migration stamps the current salt";
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 2u);
  EXPECT_EQ(reopened.stats().corrupt, 0u);
  ASSERT_TRUE(reopened.lookup(0xb).has_value());
  EXPECT_EQ(*reopened.lookup(0xb), 0.25);
}

TEST(RuntimeCache, InvalidateClearsBothTiersAndSurvivesReload) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_inval";
  std::filesystem::remove_all(dir);
  runtime::SolverCache cache(dir);
  cache.store(1, 1.0);
  cache.store(2, 2.0);
  ASSERT_TRUE(cache.invalidate());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  // New stores after invalidation persist normally.
  cache.store(3, 3.0);
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_FALSE(reopened.lookup(1).has_value());
  EXPECT_TRUE(reopened.lookup(3).has_value());
}

TEST(RuntimeCache, DamagedHeaderNeverAdmitsATornRecord) {
  // Two ways to lose the header: one flipped byte (v2 -> v3), or the
  // header and salt lines gone entirely. Either way the file still holds
  // a 3-field record or a `#` line, so it is no legacy v1 file and a
  // 2-field torn tail must not load as a record.
  const std::string header_and_salt =
      "# lrd-solver-cache v2\n# salt " + std::string(runtime::kCacheVersionSalt) + "\n";
  const std::pair<std::string, std::string> damages[] = {
      {"cache v2", "cache v3"},
      {header_and_salt, ""},
  };
  for (const auto& [from, to] : damages) {
    SCOPED_TRACE("header damage: " + from);
    const std::string dir = ::testing::TempDir() + "lrd_cache_torn_header";
    std::filesystem::remove_all(dir);
    {
      runtime::SolverCache cache(dir);
      cache.store(1, 0.5);
      cache.store(2, 0.123456789);
    }
    // The final append is torn: it lost its CRC and the tail of its value.
    const std::string path = dir + "/solver_cache.txt";
    std::string text = slurp(path);
    ASSERT_NE(text.find(from), std::string::npos);
    text.replace(text.find(from), from.size(), to);
    text.erase(text.find("0000000000000002 "));
    text += "0000000000000002 0.12";
    {
      std::ofstream f(path, std::ios::trunc | std::ios::binary);
      f << text;
    }
    runtime::SolverCache reopened(dir);
    EXPECT_EQ(reopened.stats().loaded, 1u);
    EXPECT_EQ(reopened.stats().corrupt, 1u);
    EXPECT_FALSE(reopened.lookup(2).has_value()) << "a torn record is lost, never misread";
    ASSERT_TRUE(reopened.lookup(1).has_value());
    EXPECT_EQ(*reopened.lookup(1), 0.5);
    // The damaged header was rewritten clean, so the next open is healthy.
    runtime::SolverCache clean(dir);
    EXPECT_EQ(clean.stats().corrupt, 0u);
    EXPECT_EQ(slurp(path).rfind("# lrd-solver-cache v2\n", 0), 0u);
  }
}

TEST(RuntimeCache, LongGarbageLineCountsAsOneCorruptRecord) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_long_line";
  std::filesystem::remove_all(dir);
  {
    runtime::SolverCache cache(dir);
    cache.store(1, 2.0);
  }
  std::string garbage;
  while (garbage.size() < 400) garbage += "long garbage line ";
  garbage.resize(400);
  {
    std::ofstream f(dir + "/solver_cache.txt", std::ios::app);
    f << garbage << '\n';
  }
  runtime::SolverCache reopened(dir);
  EXPECT_EQ(reopened.stats().loaded, 1u);
  EXPECT_EQ(reopened.stats().corrupt, 1u) << "one damaged line, however long, is one record";
  EXPECT_EQ(slurp(reopened.quarantine_path()), garbage + "\n")
      << "quarantined verbatim as exactly one line";
  ASSERT_TRUE(reopened.lookup(1).has_value());
  EXPECT_EQ(*reopened.lookup(1), 2.0);
}

// ---------------------------------------------------- sweep driver plumbing

core::ModelSweepConfig cheap_sweep_config() {
  core::ModelSweepConfig cfg;
  cfg.hurst = 0.85;
  cfg.mean_epoch = 0.05;
  cfg.utilization = 0.8;
  cfg.solver.target_relative_gap = 0.5;
  return cfg;
}

std::string csv_of(const core::SweepTable& t) {
  std::ostringstream os;
  t.print_csv(os);
  return os.str();
}

TEST(RuntimeSweep, InterruptedResumeIsBitIdentical) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const auto cfg = cheap_sweep_config();
  const std::vector<double> buffers{0.05, 0.1};
  const std::vector<double> cutoffs{0.1, 1.0};

  const auto uninterrupted = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs);
  const std::string expected_csv = csv_of(uninterrupted);

  // Full run on a disk cache, then truncate the file to two cells to
  // simulate an interrupt mid-sweep.
  const std::string dir = ::testing::TempDir() + "lrd_sweep_resume";
  std::filesystem::remove_all(dir);
  {
    runtime::SolverCache cache(dir);
    core::SweepRunOptions opts;
    opts.cache = &cache;
    (void)core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, opts);
  }
  {
    const std::string path = dir + "/solver_cache.txt";
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u + 4u) << "expected header + salt + one line per cell";
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < 4; ++i) out << lines[i] << '\n';
  }

  runtime::RunManifest manifest;
  runtime::SolverCache cache(dir);
  core::SweepRunOptions resume_opts;
  resume_opts.cache = &cache;
  resume_opts.manifest = &manifest;
  const auto resumed = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, resume_opts);

  EXPECT_EQ(csv_of(resumed), expected_csv);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kCache), 2u);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kComputed), 2u);
  EXPECT_EQ(manifest.total_cells(), 4u);
}

TEST(RuntimeSweep, WarmCacheServesEveryCell) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const auto cfg = cheap_sweep_config();
  const std::vector<double> buffers{0.05, 0.1};
  const std::vector<double> cutoffs{0.1, 1.0};

  runtime::SolverCache cache;
  core::SweepRunOptions opts;
  opts.cache = &cache;
  const auto cold = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, opts);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().stores, 4u);

  runtime::RunManifest manifest;
  opts.manifest = &manifest;
  const auto warm = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, opts);
  EXPECT_EQ(cache.stats().hits, 4u);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kCache), 4u);
  EXPECT_EQ(manifest.cells_from(runtime::RunManifest::CellSource::kComputed), 0u);
  EXPECT_EQ(csv_of(warm), csv_of(cold));
}

TEST(RuntimeSweep, PreCancelledSweepSkipsEveryCellAndResumeCompletes) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const auto cfg = cheap_sweep_config();
  const std::vector<double> buffers{0.05, 0.1};
  const std::vector<double> cutoffs{0.1, 1.0};
  const auto baseline = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs);

  const std::string dir = ::testing::TempDir() + "lrd_sweep_precancel";
  std::filesystem::remove_all(dir);
  runtime::CancellationToken token;
  token.cancel();
  {
    runtime::SolverCache cache(dir);
    core::SweepRunOptions opts;
    opts.cache = &cache;
    opts.cancellation = &token;
    (void)core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, opts);
  }

  // Every cell was skipped, so the cache file is well-formed but holds no
  // cells; the resumed run recomputes the full surface.
  {
    runtime::SolverCache probe(dir);
    EXPECT_EQ(probe.stats().loaded, 0u);
    EXPECT_EQ(probe.stats().corrupt, 0u);
  }
  runtime::SolverCache cache(dir);
  core::SweepRunOptions resume_opts;
  resume_opts.cache = &cache;
  const auto resumed = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, resume_opts);
  EXPECT_EQ(csv_of(resumed), csv_of(baseline));
}

TEST(RuntimeSweep, MidSweepCancellationResumesBitIdentically) {
  const dist::Marginal m({2.0, 6.0, 10.0}, {0.3, 0.4, 0.3});
  const auto cfg = cheap_sweep_config();
  const std::vector<double> buffers{0.05, 0.1};
  const std::vector<double> cutoffs{0.1, 1.0};
  const auto baseline = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs);

  const std::string dir = ::testing::TempDir() + "lrd_sweep_cancel";
  std::filesystem::remove_all(dir);
  runtime::CancellationToken token;
  {
    runtime::SolverCache cache(dir);
    core::SweepRunOptions opts;
    opts.cache = &cache;
    opts.cancellation = &token;
    opts.threads = 2;
    // Cancel from outside while cells are in flight. However many cells
    // the race lets through (zero to all four), the invariant is the same:
    // the cache holds only completed clean cells and a rerun on it
    // finishes the surface bit-identically to an uninterrupted one.
    std::thread canceller([&token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      token.cancel();
    });
    (void)core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, opts);
    canceller.join();
  }

  runtime::RunManifest manifest;
  runtime::SolverCache cache(dir);
  core::SweepRunOptions resume_opts;
  resume_opts.cache = &cache;
  resume_opts.manifest = &manifest;
  const auto resumed = core::loss_vs_buffer_and_cutoff(m, cfg, buffers, cutoffs, resume_opts);
  EXPECT_EQ(csv_of(resumed), csv_of(baseline));
  EXPECT_EQ(manifest.total_cells(), 4u);
}

TEST(RuntimeSweep, ManifestJsonIsWellFormedEnough) {
  runtime::RunManifest manifest;
  manifest.set_tool("test");
  manifest.set_title("a \"quoted\" title");
  manifest.add_config("gap", "0.2");
  manifest.set_grid(1, 2);
  manifest.add_cell(0, 1, 0.25, runtime::RunManifest::CellSource::kComputed);
  manifest.add_cell(0, 0, 0.5, runtime::RunManifest::CellSource::kCache);
  manifest.add_issue("cell went sideways");
  const std::string json = manifest.to_json();
  EXPECT_NE(json.find("\"a \\\"quoted\\\" title\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\": 1"), std::string::npos);
  // Cells are sorted by (row, col) regardless of insertion order.
  EXPECT_LT(json.find("\"col\": 0"), json.find("\"col\": 1"));
  const std::string path = ::testing::TempDir() + "lrd_manifest.json";
  EXPECT_TRUE(manifest.write_file(path));
}

}  // namespace
