#include "runtime/cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <vector>

#include "core/failpoint.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/crc32.hpp"
#include "runtime/fsync_util.hpp"

namespace lrd::runtime {

namespace {

constexpr const char* kCacheHeader = "# lrd-solver-cache v2";
constexpr const char* kSaltPrefix = "# salt ";

obs::Counter& hits_counter() {
  static obs::Counter& c = obs::Registry::global().counter("lrd_cache_hits_total",
                                                           "Solver-cache lookup hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c = obs::Registry::global().counter("lrd_cache_misses_total",
                                                           "Solver-cache lookup misses");
  return c;
}
obs::Counter& stores_counter() {
  static obs::Counter& c = obs::Registry::global().counter("lrd_cache_stores_total",
                                                           "Solver-cache stores");
  return c;
}
obs::Counter& corrupt_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_cache_corrupt_records_total",
      "Solver-cache records quarantined on load (CRC mismatch or torn write)");
  return c;
}
obs::Counter& compactions_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_cache_compactions_total", "Atomic clean rewrites of the solver-cache file");
  return c;
}
obs::Counter& evictions_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_cache_evictions_total",
      "Memory-tier entries evicted by the LRU-with-cost policy");
  return c;
}
obs::Counter& stale_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_cache_stale_records_total",
      "Disk-tier records dropped on load for a version-salt mismatch");
  return c;
}

/// %.17g round-trips every finite double exactly; "nan"/"inf" are parsed
/// back by strtod, so non-finite cached values survive the text format.
/// The CRC is computed over exactly this payload text, so a v2 record is
/// "<payload> <8-hex crc>".
std::string record_payload(std::uint64_t key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 " %.17g", key, value);
  return buf;
}

enum class RecordParse { kOk, kCorrupt };

/// Parses one non-comment line of the cache file. A 3-token line is a v2
/// record whose CRC must match its payload text; a 2-token line is a
/// legacy v1 record, accepted only in headerless (v1-era) files — in a
/// v2 file a 2-token line is a torn append whose truncated value could
/// still parse as a plausible double, so it must be rejected.
RecordParse parse_record(const std::string& line, bool v2_file, std::uint64_t& key,
                         double& value) {
  std::uint64_t k = 0;
  double v = 0.0;
  std::uint32_t crc = 0;
  char tail[8];
  const int fields =
      std::sscanf(line.c_str(), "%" SCNx64 " %lf %8" SCNx32 " %7s", &k, &v, &crc, tail);
  if (fields == 3) {
    const auto last_space = line.find_last_of(' ');
    if (last_space == std::string::npos) return RecordParse::kCorrupt;
    std::string_view payload(line.c_str(), last_space);
    if (crc32(payload) != crc) return RecordParse::kCorrupt;
    key = k;
    value = v;
    return RecordParse::kOk;
  }
  if (fields == 2 && !v2_file) {  // legacy v1 record, no checksum to verify
    key = k;
    value = v;
    return RecordParse::kOk;
  }
  return RecordParse::kCorrupt;
}

/// Appends damaged raw lines to the quarantine file so corruption is
/// inspectable after the fact instead of silently discarded.
void quarantine_lines(const std::string& path, const std::vector<std::string>& lines) {
  if (lines.empty()) return;
  if (std::FILE* out = std::fopen(path.c_str(), "a")) {
    for (const std::string& line : lines) {
      std::fwrite(line.data(), 1, line.size(), out);
      std::fputc('\n', out);
    }
    std::fclose(out);
  }
}

}  // namespace

SolverCache::SolverCache(const SolverCacheConfig& cfg)
    : shard_capacity_(cfg.capacity_cost > 0.0 ? cfg.capacity_cost / kShards : 0.0),
      salt_(cfg.version_salt) {
  if (cfg.disk_dir.empty()) return;
  obs::Span load_span("cache.load_disk", "cache");
  // Touch every cache metric so a snapshot taken later carries them even
  // at zero — CI asserts their presence, not just their growth.
  hits_counter();
  misses_counter();
  stores_counter();
  corrupt_counter();
  compactions_counter();
  evictions_counter();
  stale_counter();
  std::error_code ec;
  std::filesystem::create_directories(cfg.disk_dir, ec);  // best effort; open decides
  file_path_ = (std::filesystem::path(cfg.disk_dir) / "solver_cache.txt").string();

  std::vector<std::string> corrupt_lines;
  const bool load_io_error = core::failpoint_hit("cache.load").io_error();
  std::FILE* in = load_io_error ? nullptr : std::fopen(file_path_.c_str(), "r");
  bool file_existed = in != nullptr;
  bool v2_file = false;
  bool stale_file = false;
  if (in != nullptr) {
    char line[192];
    while (std::fgets(line, sizeof line, in)) {
      std::string text(line);
      while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) text.pop_back();
      if (text.empty() || text[0] == '#') {
        if (text == kCacheHeader) v2_file = true;
        // A salt line under a different version marks the whole file
        // stale: the persisted losses were computed by other numerics.
        if (text.rfind(kSaltPrefix, 0) == 0 && text.substr(std::strlen(kSaltPrefix)) != salt_)
          stale_file = true;
        continue;
      }
      std::uint64_t key = 0;
      double value = 0.0;
      if (parse_record(text, v2_file, key, value) == RecordParse::kOk) {
        if (stale_file) {
          ++central_.stale;
          stale_counter().inc();
          continue;
        }
        if (!disk_map_.emplace(key, value).second) {
          disk_map_[key] = value;  // duplicate key: last write wins
          ++central_.duplicates;
        }
        ++central_.loaded;
      } else {
        ++central_.corrupt;
        corrupt_counter().inc();
        corrupt_lines.push_back(std::move(text));
      }
    }
    std::fclose(in);
  }
  quarantine_lines(quarantine_path(), corrupt_lines);

  // Warm the memory tier from the surviving records (eviction applies, so
  // a bounded cache keeps only the most recently loaded shard-share).
  for (const auto& [key, value] : disk_map_) insert_memory(key, value, 1.0);

  file_ = std::fopen(file_path_.c_str(), "a");
  // A fresh file gets the v2 header and salt before any appends, so its
  // 2-token torn appends can never be mistaken for legacy v1 records on
  // reload, and a future salt bump can invalidate it wholesale.
  if (file_ && !file_existed) {
    std::fprintf(file_, "%s\n%s%s\n", kCacheHeader, kSaltPrefix, salt_.c_str());
    std::fflush(file_);
  }

  // Recovery/compaction policy: corruption or staleness rewrites the file
  // clean immediately (damaged records are already quarantined, stale
  // ones dropped); heavy duplication compacts too, bounding append-only
  // growth across reruns.
  if (central_.corrupt > 0 || central_.stale > 0 ||
      central_.duplicates > kAutoCompactDuplicates) {
    std::lock_guard<std::mutex> lock(disk_mu_);
    compact_locked();
  }

  load_span.annotate("loaded", central_.loaded, "duplicates", central_.duplicates, "corrupt",
                     central_.corrupt, "stale", central_.stale);
}

SolverCache::~SolverCache() {
  if (file_) std::fclose(file_);
}

void SolverCache::insert_memory(std::uint64_t key, double value, double cost) {
  cost = std::max(cost, 1e-9);  // a zero-cost entry must still occupy budget
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.map.find(key);
  if (it != s.map.end()) {
    s.cost += cost - it->second.cost;
    it->second.value = value;
    it->second.cost = cost;
    s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    return;
  }
  s.lru.push_front(key);
  s.map.emplace(key, Entry{value, cost, s.lru.begin()});
  s.cost += cost;
  // LRU-with-cost: shed from the cold end until the shard fits its share
  // of the budget again. The just-inserted entry is never shed (a single
  // over-budget entry is still worth keeping — it was just computed).
  while (shard_capacity_ > 0.0 && s.cost > shard_capacity_ && s.lru.size() > 1) {
    // Torture hook for the serving tier: a crash mid-eviction must leave
    // the disk tier (the durable truth) untouched. io_error/torn do not
    // apply to a memory-only operation and are ignored.
    core::failpoint_hit("cache.evict");
    const std::uint64_t victim = s.lru.back();
    const auto vit = s.map.find(victim);
    s.cost -= vit->second.cost;
    s.map.erase(vit);
    s.lru.pop_back();
    ++s.evictions;
    evictions_counter().inc();
    obs::instant("cache.evict", "cache");
    obs::flight::record(obs::flight::EventKind::kCacheEvict, "", victim);
  }
}

std::optional<double> SolverCache::lookup(std::uint64_t key, bool* from_disk) {
  if (from_disk) *from_disk = false;
  Shard& s = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      ++s.hits;
      hits_counter().inc();
      obs::instant("cache.hit", "cache");
      obs::flight::record(obs::flight::EventKind::kCacheHit, "", key, 0);
      s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
      return it->second.value;
    }
    if (file_path_.empty()) {  // memory-only: miss is final
      ++s.misses;
      misses_counter().inc();
      obs::instant("cache.miss", "cache");
      obs::flight::record(obs::flight::EventKind::kCacheMiss, "", key);
      return std::nullopt;
    }
  }
  // Second level: the persisted records (includes entries the LRU shed).
  std::optional<double> disk_value;
  {
    std::lock_guard<std::mutex> lock(disk_mu_);
    const auto it = disk_map_.find(key);
    if (it != disk_map_.end()) {
      disk_value = it->second;
      if (from_disk) *from_disk = true;
      ++central_.disk_hits;
      ++central_.hits;
      hits_counter().inc();
      obs::instant("cache.hit", "cache");
      obs::flight::record(obs::flight::EventKind::kCacheHit, "", key, 1);
    } else {
      ++central_.misses;
      misses_counter().inc();
      obs::instant("cache.miss", "cache");
      obs::flight::record(obs::flight::EventKind::kCacheMiss, "", key);
    }
  }
  if (disk_value) insert_memory(key, *disk_value, 1.0);  // promote
  return disk_value;
}

void SolverCache::store(std::uint64_t key, double value, double cost) {
  insert_memory(key, value, cost);
  std::lock_guard<std::mutex> lock(disk_mu_);
  ++central_.stores;
  stores_counter().inc();
  obs::flight::record(obs::flight::EventKind::kCacheStore, "", key, 0, cost);
  if (file_path_.empty()) return;
  const bool fresh = disk_map_.emplace(key, value).second;
  if (!fresh) disk_map_[key] = value;  // last write wins; no re-append
  if (fresh && file_) {
    const core::FailAction fault = core::failpoint_hit("cache.append");
    if (fault.io_error()) return;  // as if the write failed: memory tier keeps the value
    const std::string payload = record_payload(key, value);
    char line[96];
    const int n = std::snprintf(line, sizeof line, "%s %08" PRIx32 "\n", payload.c_str(),
                                crc32(payload));
    const std::size_t len =
        fault.torn_write() ? fault.torn_bytes(static_cast<std::size_t>(n))
                           : static_cast<std::size_t>(n);
    std::fwrite(line, 1, len, file_);
    std::fflush(file_);
    fsync_stream(file_);  // a killed run keeps everything stored so far
  }
}

bool SolverCache::compact() {
  std::lock_guard<std::mutex> lock(disk_mu_);
  return compact_locked();
}

bool SolverCache::invalidate() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.map.clear();
    s.lru.clear();
    s.cost = 0.0;
  }
  std::lock_guard<std::mutex> lock(disk_mu_);
  disk_map_.clear();
  ++central_.invalidations;
  return compact_locked();
}

bool SolverCache::compact_locked() {
  if (file_path_.empty()) return true;
  obs::Span compact_span("cache.compact", "cache");
  if (core::failpoint_hit("cache.compact").io_error()) return false;

  // Deterministic record order keeps compacted files diffable run-to-run.
  std::vector<std::pair<std::uint64_t, double>> entries(disk_map_.begin(), disk_map_.end());
  std::sort(entries.begin(), entries.end());

  const std::string tmp = file_path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n%s%s\n", kCacheHeader, kSaltPrefix, salt_.c_str());
  for (const auto& [key, value] : entries) {
    const std::string payload = record_payload(key, value);
    std::fprintf(out, "%s %08" PRIx32 "\n", payload.c_str(), crc32(payload));
  }
  const bool wrote = std::fflush(out) == 0 && fsync_stream(out);
  std::fclose(out);
  if (!wrote || std::rename(tmp.c_str(), file_path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(file_path_);

  // The append stream points at the replaced inode; reopen on the new file.
  if (file_) std::fclose(file_);
  file_ = std::fopen(file_path_.c_str(), "a");
  ++central_.compactions;
  compactions_counter().inc();
  return true;
}

CacheStats SolverCache::stats() const {
  CacheStats out;
  {
    std::lock_guard<std::mutex> lock(disk_mu_);
    out = central_;
  }
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    out.hits += s.hits;
    out.misses += s.misses;
    out.evictions += s.evictions;
  }
  return out;
}

std::size_t SolverCache::size() const {
  std::size_t n = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    n += s.map.size();
  }
  return n;
}

}  // namespace lrd::runtime
