// Content-addressed solver result cache — concurrent sharded tier.
//
// A sweep cell is pure: its loss value is fully determined by the model
// configuration, the solver configuration and the cell coordinates. The
// cache keys each cell by a canonical 64-bit FNV-1a hash of exactly those
// inputs plus a code-version salt (`kCacheVersionSalt`), so re-running a
// figure with one changed axis only recomputes the changed cells, and a
// solver-numerics change invalidates everything at once by bumping the
// salt.
//
// Key contract:
//   * every double is hashed by bit pattern after canonicalization
//     (-0.0 hashes as +0.0, every NaN as one fixed pattern), so a key is
//     stable across runs, platforms and compiler optimization levels;
//   * variable-length inputs (marginal support, strings) are
//     length-prefixed, so concatenation ambiguities cannot alias keys;
//   * the salt is hashed first; bump it whenever the solver's numerical
//     behaviour changes in a way that invalidates cached losses.
//
// Concurrency model (the serving tier's requirement): the memory tier is
// split into kShards shards addressed by a mix of the key, each with its
// own mutex, hash map and LRU list, so concurrent clients contend only
// when their keys land on the same shard. The disk tier (and the shared
// load/store/compaction bookkeeping) sits behind a second mutex; no code
// path ever holds a shard lock and the disk lock at the same time, so
// there is no lock-order cycle. All public methods are thread-safe.
//
// Eviction: `SolverCacheConfig::capacity_cost` bounds the memory tier.
// Every entry carries a cost (callers pass the solve's wall seconds, or
// the default 1.0 so capacity counts entries); when a shard exceeds its
// share of the budget it evicts least-recently-used entries first
// (`CacheStats::evictions`, `lrd_cache_evictions_total`). Evicted entries
// are *not* lost on a persistent cache, but the "disk tier" that keeps
// them is an in-memory map (`disk_map_`) holding every record the file
// has, loaded at construction and written through on each store: it is
// consulted on a memory miss and promoted back on a hit
// (`CacheStats::disk_hits`) without reading the disk. So capacity_cost
// bounds the sharded tier only; with a persistent file the process holds
// every record, whatever the capacity. capacity_cost = 0 keeps the
// historical never-evicted behaviour.
//
// Tiers: the sharded in-memory map always; optionally a persistent
// append-only text file (`<dir>/solver_cache.txt`) loaded at
// construction — the on-disk tier is what makes a warm rerun of an
// unchanged surface complete without a single solve. Only *clean* results
// should be stored (callers skip degraded cells), so a cached value never
// masks a diagnosable failure.
//
// On-disk format (v2, self-validating):
//   # lrd-solver-cache v2
//   # salt <version salt>
//   <16-hex key> <%.17g value> <8-hex CRC32 of "<key> <value>">
// Appends are flushed and fsynced record-by-record, so a killed run keeps
// everything stored so far — which makes the disk tier the resume path of
// an interrupted sweep: rerunning it on the same directory serves every
// clean cell that finished. On load every line is read whole and every
// record's CRC is verified: damaged lines (torn appends, bit rot, garbage
// of any length) are moved to `solver_cache.txt.quarantine`, counted once
// each in `CacheStats::corrupt` and the `lrd_cache_corrupt_records_total`
// metric, and never served. A salt line that does not match the
// configured version salt marks every record in the file stale
// (`CacheStats::stale`, `lrd_cache_stale_records_total`): they are
// dropped wholesale and the file is compacted clean under the new salt —
// the versioned-invalidation path a long-running daemon needs when the
// solver numerics change underneath its cache. Legacy v1 files (no `#`
// line, 2-field records without CRC) still load; a 2-field line in any
// other file is a torn record and is rejected. A file that lacks the
// header, the salt line or its final newline is rewritten on load, before
// any append can land in it. Duplicate keys resolve last-write-wins
// (`CacheStats::duplicates`); when corruption, staleness or duplication
// exceeds a threshold the file is compacted — atomically rewritten with
// one clean v2 record per live entry — so long-lived caches stop growing
// without bound across reruns. See docs/ROBUSTNESS.md for the failure
// model and docs/SERVE.md for the serving tier built on top.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

namespace lrd::runtime {

/// Bump whenever solver numerics change in a way that invalidates cached
/// cell results (the cache key contract above).
inline constexpr std::string_view kCacheVersionSalt = "lrd-solver-cache-v2";

/// Streaming 64-bit FNV-1a over a canonical byte encoding.
class Fnv1a {
 public:
  Fnv1a& bytes(const void* data, std::size_t n) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
    return *this;
  }

  Fnv1a& u64(std::uint64_t v) noexcept {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    return bytes(b, 8);
  }

  /// Canonical double: -0.0 hashes as +0.0, every NaN as one pattern.
  Fnv1a& f64(double v) noexcept {
    if (v == 0.0) v = 0.0;                         // collapse -0.0
    std::uint64_t bits;
    if (v != v) bits = 0x7ff8000000000000ull;      // collapse NaN payloads
    else std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }

  /// Length-prefixed, so "ab"+"c" and "a"+"bc" cannot alias.
  Fnv1a& str(std::string_view s) noexcept {
    u64(s.size());
    return bytes(s.data(), s.size());
  }

  std::uint64_t digest() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
};

struct CacheStats {
  std::uint64_t hits = 0;        ///< Lookups served (memory or disk tier).
  std::uint64_t misses = 0;
  std::uint64_t stores = 0;
  std::uint64_t loaded = 0;      ///< Records accepted from the disk tier at startup.
  std::uint64_t duplicates = 0;  ///< Duplicate-key records superseded on load.
  std::uint64_t corrupt = 0;     ///< Records quarantined on load (bad CRC / torn).
  std::uint64_t compactions = 0; ///< Atomic clean rewrites of the disk tier.
  std::uint64_t disk_hits = 0;   ///< Hits served by the disk tier after a memory miss.
  std::uint64_t evictions = 0;   ///< Memory-tier entries evicted (LRU-with-cost).
  std::uint64_t stale = 0;       ///< Records dropped on load for a version-salt mismatch.
  std::uint64_t invalidations = 0; ///< Explicit invalidate() calls (both tiers cleared).
};

/// Construction-time knobs of a SolverCache. The default-constructed
/// value reproduces the historical behaviour exactly: memory-only,
/// never-evicted, keyed under the library's version salt.
struct SolverCacheConfig {
  /// Directory of the persistent tier; empty = memory-only.
  std::string disk_dir;
  /// Total memory-tier cost budget across all shards (each entry
  /// contributes its store() cost, default 1.0 per entry, so with default
  /// costs this is a max entry count). 0 = unlimited, never evict.
  double capacity_cost = 0.0;
  /// Version salt recorded in (and checked against) the disk tier. A
  /// mismatch on load drops every persisted record as stale.
  std::string version_salt = std::string(kCacheVersionSalt);
};

/// Thread-safe key -> loss-value cache: sharded LRU memory tier,
/// optional CRC-validated disk tier as a second level.
class SolverCache {
 public:
  /// Memory-tier shards; striped locking keeps concurrent clients off
  /// each other's cache lines unless their keys collide mod kShards.
  static constexpr std::size_t kShards = 16;

  /// Duplicate-or-corrupt records tolerated on load before the disk file
  /// is auto-compacted (any corruption or staleness at all triggers a
  /// clean rewrite).
  static constexpr std::uint64_t kAutoCompactDuplicates = 64;

  /// Memory-only cache, unbounded (historical behaviour).
  SolverCache() : SolverCache(SolverCacheConfig{}) {}

  /// Memory tier plus a persistent tier under `disk_dir` (created if
  /// missing). Existing entries are loaded eagerly; damaged records are
  /// quarantined and counted, never fatal. An empty dir means memory-only.
  explicit SolverCache(const std::string& disk_dir)
      : SolverCache(SolverCacheConfig{disk_dir, 0.0, std::string(kCacheVersionSalt)}) {}

  explicit SolverCache(const SolverCacheConfig& cfg);

  ~SolverCache();
  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// Value for `key`, counting a hit or a miss. A memory miss falls
  /// through to the disk tier; a disk hit is promoted back into the
  /// memory tier (and still counts as a hit). When `from_disk` is
  /// non-null it is set to whether the hit was served by the disk tier —
  /// the provenance bit the serve daemon reports to clients.
  std::optional<double> lookup(std::uint64_t key, bool* from_disk = nullptr);

  /// Inserts (last write wins) and appends to the disk tier when present.
  /// `cost` is the entry's weight against `capacity_cost` (clamped to a
  /// small positive minimum) — pass the solve's wall seconds so eviction
  /// preferentially keeps expensive-to-recompute results resident longer.
  void store(std::uint64_t key, double value, double cost = 1.0);

  /// Atomically rewrites the disk tier with one clean v2 record per live
  /// entry (no-op for a memory-only cache). Returns false on I/O failure;
  /// the cache stays usable either way. Called automatically on load when
  /// corruption, staleness or duplication crossed the threshold.
  bool compact();

  /// Drops every entry from both tiers and rewrites the disk file empty
  /// under the current salt — the operator-facing invalidation path (the
  /// serve daemon exposes it as the "invalidate" op). Returns false only
  /// when the disk rewrite failed; the memory tier is cleared regardless.
  bool invalidate();

  CacheStats stats() const;
  /// Entries resident in the memory tier (the disk tier may hold more
  /// once eviction has run).
  std::size_t size() const;

  /// Path of the persistent file, empty for a memory-only cache.
  const std::string& disk_path() const noexcept { return file_path_; }
  /// Path damaged records are appended to (`disk_path() + ".quarantine"`).
  std::string quarantine_path() const { return file_path_ + ".quarantine"; }

 private:
  struct Entry {
    double value = 0.0;
    double cost = 1.0;
    std::list<std::uint64_t>::iterator lru_it;  // singular when the tier is unbounded
  };
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::uint64_t, Entry> map;
    std::list<std::uint64_t> lru;  // front = most recently used; empty when unbounded
    double cost = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };

  Shard& shard_for(std::uint64_t key) noexcept {
    // Fibonacci mix so shard choice is independent of the low key bits
    // callers might correlate (the keys are FNV digests, but cheap).
    return shards_[(key * 0x9E3779B97F4A7C15ull) >> 60];
  }

  /// Inserts into one shard and evicts LRU entries past the shard's
  /// budget. Caller must NOT hold the shard lock.
  void insert_memory(std::uint64_t key, double value, double cost);
  bool compact_locked();

  Shard shards_[kShards];
  double shard_capacity_ = 0.0;  // capacity_cost / kShards; 0 = unlimited

  /// Guards the disk tier and the shared (non-shard) stats. Never held
  /// together with a shard mutex.
  mutable std::mutex disk_mu_;
  std::unordered_map<std::uint64_t, double> disk_map_;  // all persisted records
  CacheStats central_;  // stores/loaded/duplicates/corrupt/compactions/disk_hits/...
  std::string file_path_;
  std::string salt_;
  std::FILE* file_ = nullptr;  // append stream of the persistent tier
};

}  // namespace lrd::runtime
