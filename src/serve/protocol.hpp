// Wire protocol of the loss-rate query daemon (`lrdq_serve`).
//
// Transport: line-delimited JSON. A client sends one JSON object per
// line; the daemon answers with exactly one JSON object per line, in
// completion order (responses echo the query's "id" so pipelined clients
// can match them up). The same encoding is used over the local socket,
// in `--once` stdin mode, and by the scripted-session tests, so one
// parser/serializer pair defines the protocol end to end. The full
// schema, with examples, lives in docs/SERVE.md.
//
// A solve query names a model cell exactly the way `lrdq_solve` does —
// marginal (rates/probs), Hurst, mean epoch, cutoff, utilization,
// normalized buffer — plus optional solver knobs (gap, max_bins,
// deadline_ms) and an optional target loss probability, which turns the
// query into the paper's operational question: what buffer B does this
// traffic mix need to keep loss below p? Control ops (ping, stats,
// invalidate, dump) share the envelope.
//
// Responses carry a status string AND a numeric code aligned with the
// repo-wide CLI exit taxonomy (0 ok, 1 not converged, 6 deadline /
// guard, plus serve-specific 7 = shed by admission control), the loss
// bracket, solver diagnostics, the correlation horizon, the required-B
// answer when a target was given, and cache provenance (hit/miss, tier,
// key, version salt) so an operator can audit where an answer came from
// and how stale it can possibly be.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.hpp"
#include "obs/json.hpp"
#include "queueing/solver.hpp"

namespace lrd::serve {

enum class QueryOp { kSolve = 0, kPing, kStats, kInvalidate, kDump };

/// One parsed client query. Defaults mirror lrdq_solve's flag defaults,
/// so the same cell described the same way yields the same cache key.
struct Query {
  QueryOp op = QueryOp::kSolve;
  std::string id;  ///< Echoed verbatim in the response; may be empty.

  // Model cell (op == kSolve).
  std::vector<double> rates;
  std::vector<double> probs;
  double hurst = 0.85;
  double mean_epoch = 0.05;
  double cutoff = 10.0;  ///< +inf for the fully self-similar model.
  double utilization = 0.8;
  double normalized_buffer = 0.5;

  // Solver knobs.
  double target_relative_gap = 0.2;
  std::size_t max_bins = 1 << 14;
  /// Per-query deadline override; 0 = use the server default.
  std::size_t deadline_ms = 0;

  /// Target loss probability: when set, the response also carries the
  /// smallest normalized buffer whose loss estimate is <= this.
  std::optional<double> target_loss;

  /// When false the solver cache is bypassed (fresh solve, not stored) —
  /// the provenance escape hatch for clients that must not trust a cache.
  bool use_cache = true;
};

/// The text a response echoes for a query's "id" value: a string
/// verbatim; a whole number of magnitude up to 2^53 as its digits; any
/// other number as the shortest text that reads back to the same double
/// (std::to_chars), so no digit a client sent is lost. nullopt for any
/// other JSON type.
std::optional<std::string> id_text(const obs::json::Value& id);

/// Best-effort echo id of a line that will not be answered as a query
/// (rejected or shed): id_text of its "id", or empty when the
/// line is not a JSON object or its id is absent or of another type.
std::string peek_id(std::string_view line);

/// Parses one query line. Unknown keys are an error (fail fast beats
/// silently ignoring a typo'd parameter in a capacity-planning request);
/// the diagnostic names the offending key or type.
lrd::Expected<Query> parse_query(std::string_view line);

enum class QueryStatus {
  kOk = 0,
  kNotConverged,
  kDeadlineExceeded,
  kCancelled,   ///< Server drained/stopped while the solve was in flight.
  kShed,        ///< Rejected by admission control; no solve was attempted.
  kError,       ///< Malformed query or solver failure; see diagnostic.
};

const char* query_status_name(QueryStatus s) noexcept;

/// Numeric response code: the CLI exit-code taxonomy (0/1/3/4/5/6) plus
/// the serve-specific kShedCode for admission-control rejections.
inline constexpr int kShedCode = 7;
int query_status_code(QueryStatus s, lrd::ErrorCategory error_category) noexcept;

/// Where a served value came from.
enum class CacheTier { kNone = 0, kMemory, kDisk };

struct Response {
  QueryStatus status = QueryStatus::kOk;
  lrd::ErrorCategory error_category = lrd::ErrorCategory::kNone;
  std::string id;          ///< Echo of Query::id.
  std::string op = "solve";
  std::string diagnostic;  ///< Empty when status == kOk.

  /// Server-minted obs::QueryId, echoed to clients so a scripted
  /// session can triage its own requests (`lrdq_doctor query`).
  /// 0 (field omitted on the wire) when the obs layer is compiled out.
  std::uint64_t query_id = 0;

  // Solve payload (meaningful for op == solve with a non-shed status).
  bool has_solve = false;
  double loss_estimate = 0.0;
  /// Loss bracket; NaN bounds when the answer came from the cache (the
  /// cache persists the converged estimate, not the bracket).
  double loss_lower = 0.0;
  double loss_upper = 0.0;
  double relative_gap = 0.0;
  bool converged = false;
  std::string stop;  ///< queueing::solver_stop_name of the solve.
  std::size_t iterations = 0;
  std::size_t levels = 0;
  std::size_t bins = 0;
  /// Correlation horizon (Eq. 26) in seconds; NaN when the epoch variance
  /// diverges (cutoff = inf).
  double correlation_horizon = 0.0;
  bool has_horizon = false;

  // Required-B answer (only when the query carried target_loss).
  bool has_required_buffer = false;
  double required_normalized_buffer = 0.0;
  double required_buffer_mb = 0.0;   ///< Absolute B = b * c in Mb.
  double required_buffer_loss = 0.0; ///< Loss estimate at that buffer.

  // Cache provenance.
  bool cache_hit = false;
  CacheTier cache_tier = CacheTier::kNone;
  std::uint64_t cache_key = 0;
  std::string cache_salt;

  double wall_ms = 0.0;

  /// Extra payload members for control ops (stats), appended verbatim
  /// into the response object: name -> already-serialized JSON value.
  std::vector<std::pair<std::string, std::string>> extra;

  int code() const noexcept { return query_status_code(status, error_category); }

  /// One response line (no trailing newline).
  std::string to_json() const;
};

/// Shorthand for the malformed-query / failed-solve response.
Response error_response(std::string id, const lrd::Diagnostics& d);

/// Shorthand for the admission-control rejection.
Response shed_response(std::string id);

}  // namespace lrd::serve
