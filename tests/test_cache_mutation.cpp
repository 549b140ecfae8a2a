// Seeded mutation test of the solver cache's disk tier, the one record
// format the library reads back from disk. A 32-record file written by
// SolverCache is damaged 200 ways from a fixed seed — byte flips, torn
// tails, long garbage lines, duplicated lines, and flip + torn-tail pairs —
// and every reopen must keep the loader's contract:
//   * it never throws;
//   * every key either misses or returns its stored value bit for bit;
//   * loaded + corrupt + stale equals the number of non-empty, non-`#`
//     lines in the mutated file (each line is accounted for exactly once);
//   * a second reopen reports no corrupt or stale record and serves the
//     same values, plus a record the first reopen appended after the
//     damage (an append never fuses onto a torn line).
// A plain gtest with no fuzzing engine: the seed makes every trial
// reproducible, and the suite runs unchanged under the sanitizers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runtime/cache.hpp"

namespace {

using lrd::runtime::SolverCache;

constexpr std::size_t kRecords = 32;
constexpr int kTrials = 200;

enum class Mutation { kFlip, kTornTail, kGarbageLine, kDuplicateLine, kFlipAndTornTail };
constexpr int kMutationKinds = 5;

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kFlip: return "byte flip";
    case Mutation::kTornTail: return "torn tail";
    case Mutation::kGarbageLine: return "long garbage line";
    case Mutation::kDuplicateLine: return "duplicated line";
    case Mutation::kFlipAndTornTail: return "byte flip + torn tail";
  }
  return "?";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// Byte offsets where a line starts, plus the end of the file (so an
/// insertion may also append).
std::vector<std::size_t> line_starts(const std::string& bytes) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < bytes.size(); ++i)
    if (bytes[i] == '\n') starts.push_back(i + 1);
  if (starts.back() != bytes.size()) starts.push_back(bytes.size());
  return starts;
}

/// Lines the loader must account for, split the way it reads them: on
/// '\n', one trailing '\r' dropped, empty and `#` lines skipped.
std::size_t record_lines(const std::string& bytes) {
  std::size_t n = 0;
  for (std::size_t start = 0; start < bytes.size();) {
    std::size_t end = bytes.find('\n', start);
    if (end == std::string::npos) end = bytes.size();
    std::string_view line(bytes.data() + start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty() && line[0] != '#') ++n;
    start = end + 1;
  }
  return n;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// Raw engine output only: mt19937_64's sequence is fixed by the
  /// standard, the distributions' are not.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  void flip(std::string& bytes) {
    const std::size_t at = below(bytes.size());
    bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ (1 + below(255)));
  }

  void tear(std::string& bytes) { bytes.resize(below(bytes.size())); }

  void insert_garbage_line(std::string& bytes) {
    std::string garbage(256 + below(512), ' ');
    for (char& ch : garbage) ch = static_cast<char>(' ' + below(95));  // printable ASCII
    const auto starts = line_starts(bytes);
    bytes.insert(starts[below(starts.size())], garbage + "\n");
  }

  void duplicate_line(std::string& bytes) {
    const auto starts = line_starts(bytes);
    const std::size_t i = below(starts.size() - 1);
    const std::string line = bytes.substr(starts[i], starts[i + 1] - starts[i]);
    bytes.insert(starts[below(starts.size())], line.back() == '\n' ? line : line + "\n");
  }

  std::string apply(Mutation m, std::string bytes) {
    switch (m) {
      case Mutation::kFlip: flip(bytes); break;
      case Mutation::kTornTail: tear(bytes); break;
      case Mutation::kGarbageLine: insert_garbage_line(bytes); break;
      case Mutation::kDuplicateLine: duplicate_line(bytes); break;
      case Mutation::kFlipAndTornTail:
        flip(bytes);
        tear(bytes);
        break;
    }
    return bytes;
  }

  std::uint64_t next() { return rng_(); }

 private:
  std::mt19937_64 rng_;
};

using Stored = std::vector<std::pair<std::uint64_t, double>>;

/// Stored after each reopen: a key no mutation can produce a valid
/// record for, so only the append itself can serve it.
constexpr std::uint64_t kAppendKey = 0xa99e'4d00'0000'0001ull;
constexpr double kAppendValue = 0.1;

/// What one reopen of the cache reported and served.
struct Reopen {
  lrd::runtime::CacheStats stats;
  std::vector<std::optional<double>> served;  ///< per stored key
  std::optional<double> appended;             ///< kAppendKey, before this reopen's append
};

/// Opens the cache at `dir`, looks up every stored key (a hit must be the
/// stored value, bit for bit) and kAppendKey, then appends kAppendKey.
Reopen reopen(const std::string& dir, const Stored& stored) {
  SolverCache cache(dir);
  Reopen r{cache.stats(), {}, cache.lookup(kAppendKey)};
  for (const auto& [key, value] : stored) {
    r.served.push_back(cache.lookup(key));
    if (r.served.back()) {
      EXPECT_EQ(bits_of(*r.served.back()), bits_of(value)) << "key " << key << ": wrong value";
    }
  }
  cache.store(kAppendKey, kAppendValue);
  return r;
}

TEST(RuntimeCacheMutation, SeededDamageNeverServesAWrongValue) {
  const std::string dir = ::testing::TempDir() + "lrd_cache_mutation";
  const std::string path = dir + "/solver_cache.txt";
  Mutator mutator(0x5eed'cafe'f00dull);

  Stored stored;
  std::filesystem::remove_all(dir);
  {
    SolverCache cache(dir);
    for (std::size_t i = 0; i < kRecords; ++i) {
      // Full-precision values spanning many decades, so a truncated or
      // flipped digit always changes the bits.
      const double mantissa = static_cast<double>(mutator.next() >> 11) * 0x1p-53;
      const double value = mantissa * std::pow(10.0, -static_cast<double>(i % 12));
      stored.emplace_back(mutator.next(), value);
      cache.store(stored.back().first, value);
    }
  }
  const std::string pristine = slurp(path);
  ASSERT_EQ(record_lines(pristine), kRecords);

  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    const std::string mutated = mutator.apply(kind, pristine);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f << mutated;
    }

    Reopen first;
    ASSERT_NO_THROW(first = reopen(dir, stored));
    const auto& s1 = first.stats;
    EXPECT_EQ(s1.loaded + s1.corrupt + s1.stale, record_lines(mutated))
        << "loaded " << s1.loaded << ", corrupt " << s1.corrupt << ", stale " << s1.stale;
    EXPECT_FALSE(first.appended.has_value());

    Reopen second;
    ASSERT_NO_THROW(second = reopen(dir, stored));
    EXPECT_EQ(second.stats.corrupt, 0u) << "the first reopen rewrote the file clean";
    EXPECT_EQ(second.stats.stale, 0u);
    ASSERT_TRUE(second.appended.has_value()) << "the append after the damage was lost";
    EXPECT_EQ(bits_of(*second.appended), bits_of(kAppendValue));
    ASSERT_EQ(second.served.size(), first.served.size());
    for (std::size_t k = 0; k < first.served.size(); ++k) {
      ASSERT_EQ(second.served[k].has_value(), first.served[k].has_value()) << "key #" << k;
      if (first.served[k]) {
        EXPECT_EQ(bits_of(*second.served[k]), bits_of(*first.served[k])) << "key #" << k;
      }
    }
  }
}

}  // namespace
