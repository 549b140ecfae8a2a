#include "serve/protocol.hpp"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

namespace lrd::serve {

namespace {

namespace json = lrd::obs::json;

/// Response numbers are emitted with %.17g so every finite double
/// round-trips exactly — the byte-identical-to-lrdq_solve contract is
/// checked at full precision, not display precision. Non-finite values
/// become null (JSON has no literals for them; the horizon of a
/// cutoff=inf model is the one expected producer).
std::string num17(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

lrd::Diagnostics query_error(std::string message) {
  return lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig, "serve.protocol",
                               "query is a JSON object of known keys", std::move(message));
}

/// Numbers that must be non-negative integers (max_bins, deadline_ms).
bool to_size(const json::Value& v, std::size_t& out) {
  if (!v.is_number()) return false;
  const auto n = lrd::size_from_double(v.as_number());
  if (!n) return false;
  out = *n;
  return true;
}

bool to_number_list(const json::Value& v, std::vector<double>& out) {
  if (!v.is_array()) return false;
  out.clear();
  out.reserve(v.items().size());
  for (const json::Value& item : v.items()) {
    if (!item.is_number()) return false;
    out.push_back(item.as_number());
  }
  return true;
}

}  // namespace

std::optional<std::string> id_text(const json::Value& id) {
  if (id.is_string()) return id.as_string();
  if (!id.is_number()) return std::nullopt;
  // Every whole double up to 2^53 is an exact integer: its digits, as
  // sent. Past that, and for fractions, the shortest round-trip text.
  constexpr double kExactWhole = 9007199254740992.0;
  const double v = id.as_number();
  char buf[32];
  const bool whole = std::abs(v) <= kExactWhole && v == std::trunc(v);
  const auto r = whole ? std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed)
                       : std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string peek_id(std::string_view line) {
  const auto parsed = json::parse(line);
  if (!parsed || !parsed.value().is_object()) return "";
  const json::Value* id = parsed.value().find("id");
  return id != nullptr ? id_text(*id).value_or("") : "";
}

lrd::Expected<Query> parse_query(std::string_view line) {
  auto parsed = json::parse(line);
  if (!parsed) {
    lrd::Diagnostics d = parsed.diagnostics();
    d.component = "serve.protocol";
    return d;
  }
  const json::Value& v = parsed.value();
  if (!v.is_object()) return query_error("query line is not a JSON object");

  Query q;
  for (const auto& [key, value] : v.members()) {
    if (key == "id") {
      if (auto text = id_text(value)) q.id = std::move(*text);
      else if (!value.is_null()) return query_error("\"id\" must be a string or number");
    } else if (key == "op") {
      if (!value.is_string()) return query_error("\"op\" must be a string");
      const std::string& op = value.as_string();
      if (op == "solve") q.op = QueryOp::kSolve;
      else if (op == "ping") q.op = QueryOp::kPing;
      else if (op == "stats") q.op = QueryOp::kStats;
      else if (op == "invalidate") q.op = QueryOp::kInvalidate;
      else if (op == "dump") q.op = QueryOp::kDump;
      else return query_error("unknown op \"" + op + "\" (solve|ping|stats|invalidate|dump)");
    } else if (key == "rates") {
      if (!to_number_list(value, q.rates)) return query_error("\"rates\" must be a number array");
    } else if (key == "probs") {
      if (!to_number_list(value, q.probs)) return query_error("\"probs\" must be a number array");
    } else if (key == "hurst") {
      if (!value.is_number()) return query_error("\"hurst\" must be a number");
      q.hurst = value.as_number();
    } else if (key == "mean_epoch") {
      if (!value.is_number()) return query_error("\"mean_epoch\" must be a number");
      q.mean_epoch = value.as_number();
    } else if (key == "cutoff") {
      // "inf" selects the fully self-similar model, same as lrdq_solve's
      // --cutoff inf (JSON itself has no infinity literal).
      if (value.is_number()) q.cutoff = value.as_number();
      else if (value.is_string() && value.as_string() == "inf")
        q.cutoff = std::numeric_limits<double>::infinity();
      else return query_error("\"cutoff\" must be a number or \"inf\"");
    } else if (key == "utilization") {
      if (!value.is_number()) return query_error("\"utilization\" must be a number");
      q.utilization = value.as_number();
    } else if (key == "buffer") {
      if (!value.is_number()) return query_error("\"buffer\" must be a number");
      q.normalized_buffer = value.as_number();
    } else if (key == "gap") {
      if (!value.is_number()) return query_error("\"gap\" must be a number");
      q.target_relative_gap = value.as_number();
    } else if (key == "max_bins") {
      if (!to_size(value, q.max_bins))
        return query_error("\"max_bins\" must be a non-negative integer");
    } else if (key == "deadline_ms") {
      if (!to_size(value, q.deadline_ms))
        return query_error("\"deadline_ms\" must be a non-negative integer");
    } else if (key == "target_loss") {
      if (!value.is_number() || !(value.as_number() > 0.0) || !(value.as_number() < 1.0))
        return query_error("\"target_loss\" must be a number in (0, 1)");
      q.target_loss = value.as_number();
    } else if (key == "cache") {
      if (!value.is_bool()) return query_error("\"cache\" must be a boolean");
      q.use_cache = value.as_bool();
    } else {
      // Fail fast on typos: a silently ignored "utilisation" would answer
      // a different capacity-planning question than the one asked.
      return query_error("unknown query key \"" + key + "\"");
    }
  }
  if (q.op == QueryOp::kSolve && (q.rates.empty() || q.probs.empty()))
    return query_error("a solve query needs non-empty \"rates\" and \"probs\"");
  return q;
}

const char* query_status_name(QueryStatus s) noexcept {
  switch (s) {
    case QueryStatus::kOk: return "ok";
    case QueryStatus::kNotConverged: return "not_converged";
    case QueryStatus::kDeadlineExceeded: return "deadline_exceeded";
    case QueryStatus::kCancelled: return "cancelled";
    case QueryStatus::kShed: return "shed";
    case QueryStatus::kError: return "error";
  }
  return "unknown";
}

int query_status_code(QueryStatus s, lrd::ErrorCategory error_category) noexcept {
  switch (s) {
    case QueryStatus::kOk: return 0;
    case QueryStatus::kNotConverged: return 1;
    // Deadline expiry and drain cancellation are both "budget ran out
    // before the requested tolerance": the CLI taxonomy's exit 6.
    case QueryStatus::kDeadlineExceeded:
    case QueryStatus::kCancelled: return 6;
    case QueryStatus::kShed: return kShedCode;
    case QueryStatus::kError: return lrd::exit_code_for(error_category);
  }
  return lrd::exit_code_for(lrd::ErrorCategory::kInternal);
}

std::string Response::to_json() const {
  std::string out = "{";
  out += "\"id\": " + json::escape(id);
  out += ", \"op\": " + json::escape(op);
  out += ", \"status\": " + json::escape(query_status_name(status));
  out += ", \"code\": " + std::to_string(code());
  if (query_id != 0) out += ", \"query_id\": " + std::to_string(query_id);

  if (has_solve) {
    out += ", \"loss\": { \"estimate\": " + num17(loss_estimate);
    out += ", \"lower\": " + num17(loss_lower);
    out += ", \"upper\": " + num17(loss_upper);
    out += ", \"relative_gap\": " + num17(relative_gap) + " }";
    out += ", \"converged\": ";
    out += converged ? "true" : "false";
    out += ", \"stop\": " + json::escape(stop);
    out += ", \"iterations\": " + std::to_string(iterations);
    out += ", \"levels\": " + std::to_string(levels);
    out += ", \"bins\": " + std::to_string(bins);
  }
  if (has_horizon) out += ", \"correlation_horizon\": " + num17(correlation_horizon);
  if (has_required_buffer) {
    out += ", \"required_buffer\": { \"normalized\": " + num17(required_normalized_buffer);
    out += ", \"mb\": " + num17(required_buffer_mb);
    out += ", \"loss\": " + num17(required_buffer_loss) + " }";
  }

  if (op == "solve" && status != QueryStatus::kShed && status != QueryStatus::kError) {
    char keyhex[24];
    std::snprintf(keyhex, sizeof keyhex, "%016" PRIx64, cache_key);
    out += ", \"cache\": { \"hit\": ";
    out += cache_hit ? "true" : "false";
    out += ", \"tier\": ";
    out += cache_tier == CacheTier::kMemory ? "\"memory\""
           : cache_tier == CacheTier::kDisk ? "\"disk\""
                                            : "\"none\"";
    out += ", \"key\": ";
    out += json::escape(keyhex);
    out += ", \"salt\": " + json::escape(cache_salt) + " }";
  }

  for (const auto& [key, value] : extra) out += ", " + json::escape(key) + ": " + value;

  if (!diagnostic.empty()) out += ", \"diagnostic\": " + json::escape(diagnostic);
  out += ", \"wall_ms\": " + num17(wall_ms);
  out += "}";
  return out;
}

Response error_response(std::string id, const lrd::Diagnostics& d) {
  Response r;
  r.status = QueryStatus::kError;
  r.error_category = d.category;
  r.id = std::move(id);
  r.diagnostic = d.describe();
  return r;
}

Response shed_response(std::string id) {
  Response r;
  r.status = QueryStatus::kShed;
  r.id = std::move(id);
  r.diagnostic = "admission queue full; retry later";
  return r;
}

}  // namespace lrd::serve
