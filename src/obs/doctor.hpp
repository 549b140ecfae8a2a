// Triage and analysis of the observability artifacts: the consuming side
// of the observability layer, behind the `lrdq_doctor` tool. Four triage
// modes explain one incident or one query:
//   * triage_bundle     — a diagnostics bundle (obs/bundle.hpp): incidents
//     with the flight timeline before each, slow queries, queue pressure,
//     cache hit rate by tier;
//   * triage_access_log — outcome counts and slow queries of a JSONL
//     access log (obs/eventlog.hpp);
//   * triage_socket     — the same, on a bundle a live lrdq_serve dumps;
//   * triage_query      — every artifact joined on one correlation id.
// Four analyses explain a run or a change between two runs:
//   * profile_trace     — per-category/per-name wall time (self and total),
//     the longest spans and a per-worker utilization timeline;
//   * profile_selftime  — per-frame self/total samples of a CPU profile;
//   * diff_manifests    — wall time, cache hit rate, per-cell timings,
//     solver telemetry and issues of two sweep runs;
//   * diff_metrics      — metric-by-metric delta of two registry snapshots.
// Every result renders as text (diffs mark increases in time or telemetry
// as regressions) or as one JSON object validated by tools/validate_obs.py
// against schemas/obs_artifacts.schema.json ($defs doctorReport,
// reportProfile, reportSelftime, reportDiffManifest, reportDiffMetrics).
// docs/OBSERVABILITY.md shows the output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "obs/json.hpp"

namespace lrd::obs {

/// Glyphs in each worker's utilization timeline.
inline constexpr std::size_t kTimelineWidth = 60;

/// Aggregate over all spans sharing one name (or one category).
struct ProfileEntry {
  std::string name;
  std::string category;  ///< Empty for category-level entries.
  std::size_t count = 0;
  double total_us = 0.0;  ///< Sum of span durations (includes children).
  double self_us = 0.0;   ///< Sum of durations minus direct children.
};

/// One individual span, for the top-N listing.
struct SpanInfo {
  std::string name;
  std::string category;
  long long tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;
};

/// One thread's activity: total busy time (union of its top-level
/// spans) and a kTimelineWidth-glyph text timeline, dense glyphs = busier.
struct WorkerProfile {
  long long tid = 0;
  std::string name;  ///< Thread-name metadata when recorded, else empty.
  double busy_us = 0.0;
  double utilization = 0.0;  ///< busy / profiled span.
  std::string timeline;
};

struct TraceProfile {
  std::size_t events = 0;
  std::size_t spans = 0;
  std::size_t instants = 0;
  std::size_t dropped = 0;
  double start_us = 0.0;
  double span_us = 0.0;  ///< Last span end minus first span start.
  std::vector<ProfileEntry> by_category;  ///< Sorted by total_us, descending.
  std::vector<ProfileEntry> by_name;      ///< Sorted by self_us, descending.
  std::vector<SpanInfo> top_spans;        ///< Longest spans, descending.
  std::vector<WorkerProfile> workers;     ///< Sorted by tid.
  std::vector<std::pair<std::string, std::size_t>> instant_counts;

  std::string to_text() const;
  std::string to_json() const;
};

/// Aggregates a parsed Chrome trace-event document. `top_n` bounds the
/// top-span listing. kParse when the document lacks a traceEvents array.
lrd::Expected<TraceProfile> profile_trace(const json::Value& trace, std::size_t top_n = 10);

/// One quantity on both sides of a manifest diff.
struct DiffScalar {
  double a = 0.0;
  double b = 0.0;
  bool present = false;  ///< Both sides carried the quantity.

  double delta() const noexcept { return b - a; }
  double relative() const noexcept { return a != 0.0 ? delta() / a : 0.0; }
};

struct CellDelta {
  std::size_t row = 0;
  std::size_t col = 0;
  double a_seconds = 0.0;
  double b_seconds = 0.0;

  double delta() const noexcept { return b_seconds - a_seconds; }
};

struct ManifestDiff {
  std::string tool_a, tool_b;
  std::string title_a, title_b;
  DiffScalar wall_seconds;
  DiffScalar cache_hit_rate;
  DiffScalar computed_cells;
  std::size_t common_cells = 0;
  std::size_t only_a = 0;
  std::size_t only_b = 0;
  /// Common cells with timings on both sides, sorted by |delta| desc.
  std::vector<CellDelta> cell_deltas;
  bool has_telemetry = false;
  DiffScalar iterations;         ///< Summed over telemetry-carrying cells.
  DiffScalar levels;             ///< Ditto.
  DiffScalar max_mass_drift;     ///< Worst level across the manifest.
  DiffScalar max_occupancy_gap;  ///< Ditto.
  DiffScalar issues;
  /// Robustness counts from the cells summary (present only when a side
  /// recorded them, i.e. some cell was degraded / timed out / retried).
  DiffScalar degraded_cells;
  DiffScalar timed_out_cells;
  DiffScalar retried_cells;

  /// `top_n` bounds the per-cell listing; everything else is printed.
  std::string to_text(std::size_t top_n = 10) const;
  std::string to_json() const;
};

/// Diffs two parsed run manifests (a = before, b = after). kParse when
/// either document lacks the manifest shape.
lrd::Expected<ManifestDiff> diff_manifests(const json::Value& a, const json::Value& b);

struct MetricDelta {
  std::string name;  ///< Histogram series are flattened: "x_seconds.p90".
  std::string type;  ///< counter | gauge | histogram.
  double a = 0.0;
  double b = 0.0;
  bool in_a = false;
  bool in_b = false;

  double delta() const noexcept { return b - a; }
};

struct MetricsDiff {
  std::vector<MetricDelta> metrics;  ///< Union, a's order first, changed-or-new kept.
  std::size_t only_a = 0;
  std::size_t only_b = 0;

  std::string to_text() const;
  std::string to_json() const;
};

/// Diffs two parsed metrics snapshots (JSON export of obs::Registry).
lrd::Expected<MetricsDiff> diff_metrics(const json::Value& a, const json::Value& b);

/// Aggregate over one frame of a folded CPU profile (lrd-profile-v1).
struct SelfTimeEntry {
  std::string frame;
  unsigned long long self = 0;   ///< Samples where this frame is the leaf.
  unsigned long long total = 0;  ///< Samples with the frame anywhere on-stack.
};

struct SelfTimeTable {
  unsigned long long samples = 0;   ///< Sum of record counts.
  std::size_t stacks = 0;           ///< Distinct folded stacks.
  std::size_t queries = 0;          ///< Distinct nonzero query ids.
  std::size_t malformed = 0;        ///< Skipped non-lrd-profile-v1 lines.
  double interval_us = 0.0;         ///< Sampling interval (0 = manual samples).
  std::vector<SelfTimeEntry> entries;  ///< Sorted by self desc, then total.

  /// `top_n` bounds the rows rendered; 0 means all.
  std::string to_text(std::size_t top_n = 10) const;
  std::string to_json(std::size_t top_n = 10) const;
};

/// Folds a profiler JSONL dump (obs/profiler.hpp, one lrd-profile-v1
/// record per line) into a per-frame self/total-time table. A frame
/// recursing within one stack counts once toward that stack's total.
/// kParse when no line parses as a profile record.
lrd::Expected<SelfTimeTable> profile_selftime(const std::string& jsonl);

namespace doctor {

/// Flight events of context shown before each incident.
inline constexpr std::size_t kTimelineEvents = 8;

struct Options {
  /// Entries shown in the slow-query table and incidents analyzed.
  std::size_t top = 10;
  /// Render the machine-readable report (`"kind": "doctor"`) instead of text.
  bool json = false;
  /// How long triage_socket waits for the daemon's answer. The dump op
  /// queues behind solves, so the default is `lrdq_serve --connect`'s.
  std::size_t timeout_ms = 120000;
};

/// Triage of one bundle directory: incidents (crash signal, failpoint
/// fires, deadline expiries, sheds) each with the event timeline that
/// led up to it, top slow queries, shed/deadline incidence vs queue
/// depth, and cache hit rate by tier. kIo/kParse diagnostics when the
/// bundle is unreadable or its manifest malformed.
lrd::Expected<std::string> triage_bundle(const std::string& dir, const Options& opt = {});

/// Triage of a JSONL access log: outcome counts, slow/failed queries,
/// latency spread and cache hit rate across the logged records.
lrd::Expected<std::string> triage_access_log(const std::string& path, const Options& opt = {});

/// Asks a live lrdq_serve daemon for a fresh diagnostics bundle (the
/// "dump" control op over its unix socket) and triages the bundle it
/// reports. kIo when the daemon is unreachable, takes the query but
/// sends no answer line within `opt.timeout_ms`, or was started without
/// --dump-dir; kParse when its response is malformed.
lrd::Expected<std::string> triage_socket(const std::string& socket_path,
                                         const Options& opt = {});

/// Where triage_query looks for artifacts carrying a correlation id.
/// Empty members are skipped; at least one must be set. The bundle
/// directory contributes both its flight.jsonl and its profile.jsonl;
/// an explicit `profile` adds a standalone folded profile on top.
struct QuerySources {
  std::string access_log;  ///< JSONL access log (lrd-access-v1)
  std::string bundle_dir;  ///< diagnostics bundle directory
  std::string profile;     ///< folded profile (lrd-profile-v1)
  std::string trace;       ///< Chrome trace-event JSON (spans carry args.qid)
};

/// Cross-artifact join on one query id: the access record(s), the
/// flight-recorder timeline, the trace spans and the profile samples
/// that carry `query_id`, rendered as one report (text, or JSON with
/// `"source": "query"`). Artifacts that exist but contain no match
/// still render (with zero counts) so an operator can see *where* the
/// id went missing; an unreadable source is a kIo diagnostic.
lrd::Expected<std::string> triage_query(std::uint64_t query_id, const QuerySources& sources,
                                        const Options& opt = {});

}  // namespace doctor
}  // namespace lrd::obs
