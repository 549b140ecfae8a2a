#include "runtime/cache.hpp"

#include <algorithm>
#include <cinttypes>
#include <filesystem>
#include <fstream>
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

/// One non-comment line of the cache file, scanned as
/// "<hex key> <value> <8-hex crc>".
struct ScannedRecord {
  int fields = 0;     ///< 3 = v2 record shape, 2 = legacy v1 shape
  bool whole = false; ///< the scanned fields span the entire line
  std::uint64_t key = 0;
  double value = 0.0;
  std::uint32_t crc = 0;
};

ScannedRecord scan_record(const std::string& line) {
  ScannedRecord r;
  int used = -1;  // bytes consumed by the last field that matched
  r.fields = std::sscanf(line.c_str(), "%" SCNx64 " %lf%n %8" SCNx32 "%n", &r.key, &r.value,
                         &used, &r.crc, &used);
  // Trailing bytes, or an embedded NUL that hid them from sscanf, mean damage.
  r.whole = used >= 0 && static_cast<std::size_t>(used) == line.size();
  return r;
}

/// A 3-field record is a v2 record whose CRC must match its payload text.
/// A 2-field record is a legacy v1 record, trusted only in a true v1 file
/// (no `#` line and no 3-field record): anywhere else it is a torn append
/// whose truncated value could still parse as a plausible double.
bool record_ok(const std::string& line, const ScannedRecord& r, bool legacy_v1) {
  if (!r.whole) return false;
  if (r.fields == 3)
    return crc32(std::string_view(line).substr(0, line.find_last_of(' '))) == r.crc;
  return r.fields == 2 && legacy_v1;
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

  // Whole lines, however long, so one damaged line is one corrupt record
  // and one quarantine line.
  std::vector<std::string> lines;
  bool torn_tail = false;  // the last line lacks its '\n'
  const bool load_io_error = core::failpoint_hit("cache.load").io_error();
  std::ifstream in;
  if (!load_io_error) in.open(file_path_, std::ios::binary);
  const bool file_existed = in.is_open();
  for (std::string line; std::getline(in, line);) {
    torn_tail = in.eof();
    if (!line.empty() && line.back() == '\r') line.pop_back();
    lines.push_back(std::move(line));
  }
  in.close();

  // First pass: the file-wide facts every record's verdict depends on.
  const std::string salt_line = kSaltPrefix + salt_;
  bool has_header = false, has_salt = false, stale_file = false, legacy_v1 = true;
  std::vector<ScannedRecord> scanned(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& text = lines[i];
    if (text.empty()) continue;
    if (text[0] == '#') {
      legacy_v1 = false;
      has_header |= text == kCacheHeader;
      has_salt |= text == salt_line;
      // A salt line under a different version marks the whole file
      // stale: the persisted losses were computed by other numerics.
      stale_file |= text.rfind(kSaltPrefix, 0) == 0 && text != salt_line;
      continue;
    }
    scanned[i] = scan_record(text);
    if (scanned[i].fields == 3) legacy_v1 = false;
  }

  std::vector<std::string> corrupt_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].empty() || lines[i][0] == '#') continue;
    const ScannedRecord& r = scanned[i];
    if (!record_ok(lines[i], r, legacy_v1)) {
      ++central_.corrupt;
      corrupt_counter().inc();
      corrupt_lines.push_back(std::move(lines[i]));
    } else if (stale_file) {
      ++central_.stale;
      stale_counter().inc();
    } else {
      if (!disk_map_.emplace(r.key, r.value).second) {
        disk_map_[r.key] = r.value;  // duplicate key: last write wins
        ++central_.duplicates;
      }
      ++central_.loaded;
    }
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
  // ones dropped). So does an existing file that lacks its header (legacy
  // v1 or damaged: a CRC-carrying append would make its 2-field records
  // untrusted), its salt line (a later salt bump must still drop it) or
  // its final '\n' (the next append would fuse onto the torn line). Heavy
  // duplication compacts too, bounding append-only growth across reruns.
  if (central_.corrupt > 0 || central_.stale > 0 ||
      central_.duplicates > kAutoCompactDuplicates ||
      (file_existed && (!has_header || !has_salt || torn_tail))) {
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
    if (shard_capacity_ > 0.0) s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
    return;
  }
  // Only eviction reads the LRU list, and an unbounded tier never evicts:
  // it keeps no list node per entry and moves none on a hit.
  Entry entry{value, cost, {}};
  if (shard_capacity_ > 0.0) {
    s.lru.push_front(key);
    entry.lru_it = s.lru.begin();
  }
  s.map.emplace(key, entry);
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
      if (shard_capacity_ > 0.0) s.lru.splice(s.lru.begin(), s.lru, it->second.lru_it);
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
