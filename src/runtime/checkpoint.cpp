#include "runtime/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <string_view>

#include "core/failpoint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/crc32.hpp"
#include "runtime/fsync_util.hpp"

namespace lrd::runtime {

namespace {

obs::Counter& corrupt_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_checkpoint_corrupt_records_total",
      "Checkpoint records skipped on load (CRC mismatch or torn write)");
  return c;
}
obs::Counter& recovered_counter() {
  static obs::Counter& c = obs::Registry::global().counter(
      "lrd_checkpoint_recovered_total",
      "Cells recovered from a checkpoint file on resume");
  return c;
}

/// The exact text the per-record CRC covers; a v2 record is "<payload> <crc>".
int record_payload(char* buf, std::size_t n, const CheckpointCell& cell) {
  return std::snprintf(buf, n, "%zu %zu %.17g", cell.row, cell.col, cell.value);
}

}  // namespace

SweepCheckpoint::SweepCheckpoint(std::string path, std::uint64_t config_hash,
                                 std::size_t rows, std::size_t cols)
    : path_(std::move(path)), config_hash_(config_hash), rows_(rows), cols_(cols) {
  // Touch both recovery metrics so snapshots carry them even at zero —
  // CI asserts their presence, not just their growth.
  corrupt_counter();
  recovered_counter();
}

std::vector<CheckpointCell> SweepCheckpoint::load() {
  std::vector<CheckpointCell> out;
  const bool load_io_error = core::failpoint_hit("checkpoint.load").io_error();
  std::FILE* in = load_io_error ? nullptr : std::fopen(path_.c_str(), "r");
  if (!in) return out;

  char line[256] = "";
  // Header line 1: magic. v2 records carry a CRC; v1 (legacy) do not.
  bool v2 = false;
  if (std::fgets(line, sizeof line, in) &&
      std::string_view(line).rfind("# lrd-sweep-checkpoint v2", 0) == 0) {
    v2 = true;
  } else if (std::string_view(line).rfind("# lrd-sweep-checkpoint v1", 0) != 0) {
    std::fclose(in);
    return out;
  }
  // Header line 2: config hash + grid shape must match this sweep.
  std::uint64_t hash = 0;
  std::size_t rows = 0, cols = 0;
  if (!std::fgets(line, sizeof line, in) ||
      std::sscanf(line, "# config %" SCNx64 " rows %zu cols %zu", &hash, &rows, &cols) != 3 ||
      hash != config_hash_ || rows != rows_ || cols != cols_) {
    std::fclose(in);
    return out;
  }

  std::size_t corrupt = 0;
  while (std::fgets(line, sizeof line, in)) {
    std::string_view text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r'))
      text.remove_suffix(1);
    if (text.empty()) continue;

    CheckpointCell cell;
    std::uint32_t crc = 0;
    char tail[8];
    const int fields = std::sscanf(line, "%zu %zu %lf %8" SCNx32 " %7s", &cell.row,
                                   &cell.col, &cell.value, &crc, tail);
    bool ok = false;
    if (fields == 4) {
      // v2 record: the CRC must match the payload text before the last space.
      const auto last_space = text.find_last_of(' ');
      ok = last_space != std::string_view::npos &&
           crc32(text.substr(0, last_space)) == crc;
    } else if (fields == 3 && !v2) {
      // Legacy v1 record — only trusted in a v1 file: in a v2 file a
      // 3-field line is a torn record whose truncated value could still
      // parse as a plausible double.
      ok = true;
    }
    if (ok && cell.row < rows_ && cell.col < cols_) {
      out.push_back(cell);
    } else {
      ++corrupt;  // damaged record: skip it; its cell recomputes
    }
  }
  std::fclose(in);

  if (corrupt > 0) corrupt_counter().inc(corrupt);
  if (!out.empty()) recovered_counter().inc(out.size());

  std::lock_guard<std::mutex> lock(mu_);
  corrupt_records_ = corrupt;
  cells_.insert(cells_.end(), out.begin(), out.end());
  return out;
}

void SweepCheckpoint::record(std::size_t row, std::size_t col, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  cells_.push_back({row, col, value});
  if (autoflush_every_ != 0 && ++since_flush_ >= autoflush_every_) {
    flush_locked();
    since_flush_ = 0;
  }
}

bool SweepCheckpoint::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_locked();
}

bool SweepCheckpoint::flush_locked() {
  obs::Span flush_span("checkpoint.flush", "checkpoint");
  flush_span.annotate("cells", cells_.size());
  static obs::Counter& flushes = obs::Registry::global().counter(
      "lrd_checkpoint_flushes_total", "Checkpoint flushes (atomic rewrite of the cell log)");
  flushes.inc();

  // Build the full content first so a torn-write fault can truncate it at
  // an arbitrary byte, exactly like a crash mid-write would.
  std::string content = "# lrd-sweep-checkpoint v2\n";
  {
    char buf[128];
    std::snprintf(buf, sizeof buf, "# config %016" PRIx64 " rows %zu cols %zu\n",
                  config_hash_, rows_, cols_);
    content += buf;
    for (const CheckpointCell& cell : cells_) {
      const int n = record_payload(buf, sizeof buf, cell);
      content.append(buf, static_cast<std::size_t>(n));
      std::snprintf(buf, sizeof buf, " %08" PRIx32 "\n",
                    crc32(std::string_view(content).substr(content.size() - n)));
      content += buf;
    }
  }

  const core::FailAction write_fault = core::failpoint_hit("checkpoint.write");
  if (write_fault.io_error()) return false;
  const std::size_t len =
      write_fault.torn_write() ? write_fault.torn_bytes(content.size()) : content.size();

  const std::string tmp = path_ + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "w");
  if (!out) return false;
  bool wrote = std::fwrite(content.data(), 1, len, out) == len && std::fflush(out) == 0;
  if (wrote && !core::failpoint_hit("checkpoint.fsync").io_error())
    wrote = fsync_stream(out);
  std::fclose(out);
  if (!wrote) {
    std::remove(tmp.c_str());
    return false;
  }
  if (core::failpoint_hit("checkpoint.rename").io_error()) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  fsync_parent_dir(path_);
  return true;
}

std::size_t SweepCheckpoint::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cells_.size();
}

std::size_t SweepCheckpoint::corrupt_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return corrupt_records_;
}

}  // namespace lrd::runtime
