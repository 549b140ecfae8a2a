#include "runtime/manifest.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "core/failpoint.hpp"
#include "obs/json.hpp"
#include "runtime/fsync_util.hpp"

namespace lrd::runtime {

namespace {

// JSON has no NaN/Inf literals; number_text emits null for them (degraded cells).
using obs::json::escape;
using obs::json::number_text;

const char* source_name(RunManifest::CellSource s) {
  return s == RunManifest::CellSource::kCache ? "cache" : "computed";
}

}  // namespace

void RunManifest::set_tool(std::string tool) { tool_ = std::move(tool); }
void RunManifest::set_title(std::string title) { title_ = std::move(title); }

void RunManifest::add_config(std::string key, std::string value) {
  config_.emplace_back(std::move(key), std::move(value));
}

void RunManifest::set_config_hash(std::uint64_t hash) { config_hash_ = hash; }

void RunManifest::set_grid(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
}

void RunManifest::set_cache_stats(const CacheStats& stats) { cache_ = stats; }
void RunManifest::set_executor_stats(const JobStats& stats) { executor_ = stats; }
void RunManifest::set_wall_seconds(double seconds) { wall_seconds_ = seconds; }

void RunManifest::add_cell(std::size_t row, std::size_t col, double seconds, CellSource source,
                           std::string telemetry_json, CellFlags flags) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back({row, col, seconds, source, std::move(telemetry_json), flags});
}

void RunManifest::set_metrics_json(std::string metrics_json) {
  metrics_json_ = std::move(metrics_json);
}

void RunManifest::add_issue(std::string description) {
  std::lock_guard<std::mutex> lock(mu_);
  issues_.push_back(std::move(description));
}

std::size_t RunManifest::cells_from(CellSource source) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Cell& cell : cells_)
    if (cell.source == source) ++n;
  return n;
}

std::size_t RunManifest::total_cells() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

std::string RunManifest::to_json() const {
  std::vector<Cell> cells;
  std::vector<std::string> issues;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cells = cells_;
    issues = issues_;
  }
  std::sort(cells.begin(), cells.end(), [](const Cell& a, const Cell& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  std::size_t computed = 0, cached = 0;
  std::size_t degraded = 0, timed_out = 0, retried = 0;
  for (const Cell& cell : cells) {
    if (cell.source == CellSource::kComputed) ++computed;
    else ++cached;
    if (cell.flags.degraded) ++degraded;
    if (cell.flags.deadline_exceeded) ++timed_out;
    if (cell.flags.retries > 0) ++retried;
  }

  std::string out = "{\n";
  out += "  \"tool\": ";
  out += escape(tool_);
  out += ",\n  \"title\": ";
  out += escape(title_);
  out += ",\n  \"config\": {";
  for (std::size_t i = 0; i < config_.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += escape(config_[i].first);
    out += ": ";
    out += escape(config_[i].second);
  }
  out += config_.empty() ? "},\n" : "\n  },\n";

  char buf[160];
  std::snprintf(buf, sizeof buf, "  \"config_hash\": \"%016" PRIx64 "\",\n", config_hash_);
  out += buf;
  std::snprintf(buf, sizeof buf, "  \"grid\": { \"rows\": %zu, \"cols\": %zu },\n", rows_, cols_);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  \"cells\": { \"total\": %zu, \"computed\": %zu, \"cache_hits\": %zu",
                cells.size(), computed, cached);
  out += buf;
  // Robustness counts only appear when some cell carried a flag, so
  // manifests from fully healthy runs stay byte-identical to before.
  if (degraded + timed_out + retried > 0) {
    std::snprintf(buf, sizeof buf,
                  ", \"degraded\": %zu, \"timed_out\": %zu, \"retried\": %zu", degraded,
                  timed_out, retried);
    out += buf;
  }
  out += " },\n";
  std::snprintf(buf, sizeof buf,
                "  \"cache\": { \"hits\": %" PRIu64 ", \"misses\": %" PRIu64
                ", \"stores\": %" PRIu64 ", \"loaded\": %" PRIu64,
                cache_.hits, cache_.misses, cache_.stores, cache_.loaded);
  out += buf;
  // Sharded-tier counts only appear when non-zero, keeping manifests from
  // unbounded single-run caches byte-identical to before.
  if (cache_.evictions + cache_.disk_hits + cache_.stale > 0) {
    std::snprintf(buf, sizeof buf,
                  ", \"evictions\": %" PRIu64 ", \"disk_hits\": %" PRIu64
                  ", \"stale\": %" PRIu64,
                  cache_.evictions, cache_.disk_hits, cache_.stale);
    out += buf;
  }
  out += " },\n";

  std::snprintf(buf, sizeof buf,
                "  \"executor\": { \"workers\": %zu, \"utilization\": %s,\n"
                "    \"busy_seconds\": [",
                executor_.participants, number_text(executor_.utilization()).c_str());
  out += buf;
  for (std::size_t i = 0; i < executor_.busy_seconds.size(); ++i) {
    if (i) out += ", ";
    out += number_text(executor_.busy_seconds[i]);
  }
  out += "] },\n";

  out += "  \"wall_seconds\": " + number_text(wall_seconds_) + ",\n";

  if (!metrics_json_.empty()) out += "  \"metrics\": " + metrics_json_ + ",\n";

  out += "  \"cell_times\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    std::snprintf(buf, sizeof buf, "{ \"row\": %zu, \"col\": %zu, \"seconds\": %s, \"source\": ",
                  cells[i].row, cells[i].col, number_text(cells[i].seconds).c_str());
    out += buf;
    out += escape(source_name(cells[i].source));
    if (cells[i].flags.deadline_exceeded) out += ", \"deadline_exceeded\": true";
    if (cells[i].flags.retries > 0) {
      std::snprintf(buf, sizeof buf, ", \"retries\": %zu", cells[i].flags.retries);
      out += buf;
    }
    if (cells[i].flags.degraded) out += ", \"degraded\": true";
    if (!cells[i].telemetry.empty()) out += ", \"telemetry\": " + cells[i].telemetry;
    out += " }";
  }
  out += cells.empty() ? "],\n" : "\n  ],\n";

  out += "  \"issues\": [";
  for (std::size_t i = 0; i < issues.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += escape(issues[i]);
  }
  out += issues.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

bool RunManifest::write_file(const std::string& path) const {
  const std::string json = to_json();

  const core::FailAction write_fault = core::failpoint_hit("manifest.write");
  if (write_fault.io_error()) return false;
  const std::size_t len =
      write_fault.torn_write() ? write_fault.torn_bytes(json.size()) : json.size();

  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (!out) return false;
  bool wrote = std::fwrite(json.data(), 1, len, out) == len && std::fflush(out) == 0;
  if (wrote && !core::failpoint_hit("manifest.fsync").io_error())
    wrote = fsync_stream(out);
  std::fclose(out);
  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (core::failpoint_hit("manifest.rename").io_error() ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path);
  return true;
}

}  // namespace lrd::runtime
