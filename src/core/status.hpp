// Shared error taxonomy and structured diagnostics for the whole library.
//
// Every failure the pipeline can produce — a rejected configuration, a
// malformed trace file, a numerical-health guard trip inside the solver —
// is described by one `Diagnostics` record: the error category, the
// invariant that was violated, and the context (iteration / discretization
// level / bin count / input line) needed to reproduce it. Components
// either return a `Status` / `Expected<T>` carrying the record, attach it
// to their result struct (`SolverResult::status`), or throw one of the
// exception types below, all of which expose the same record via the
// `WithDiagnostics` mixin. The `lrdq_*` tools map categories onto distinct
// process exit codes (see `exit_code_for`).
//
// Header-only on purpose: the taxonomy is consumed by every layer
// (numerics, dist, traffic, queueing, core, tools) and must not introduce
// link-order dependencies between the per-subsystem static libraries.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace lrd {

/// Top-level failure classification. Keep the list short and stable: the
/// CLI exit-code contract and the docs enumerate it verbatim.
enum class ErrorCategory {
  kNone = 0,           ///< No error (the `Status::ok()` state).
  kInvalidArgument,    ///< Caller passed an argument that violates a precondition.
  kInvalidConfig,      ///< A config struct failed `validate()` (bad parameter value).
  kParse,              ///< Malformed input data (trace files, flag values).
  kIo,                 ///< File or stream could not be opened / read / written.
  kNumericalGuard,     ///< A numerical-health guardrail tripped (mass leak,
                       ///< NaN/Inf, negativity, bracket inversion).
  kResourceExhausted,  ///< An iteration / bin / memory budget ran out before
                       ///< the requested tolerance was met.
  kInternal,           ///< Invariant violation that indicates a library bug.
};

inline const char* category_name(ErrorCategory c) noexcept {
  switch (c) {
    case ErrorCategory::kNone: return "none";
    case ErrorCategory::kInvalidArgument: return "invalid-argument";
    case ErrorCategory::kInvalidConfig: return "invalid-config";
    case ErrorCategory::kParse: return "parse-error";
    case ErrorCategory::kIo: return "io-error";
    case ErrorCategory::kNumericalGuard: return "numerical-guard";
    case ErrorCategory::kResourceExhausted: return "resource-exhausted";
    case ErrorCategory::kInternal: return "internal";
  }
  return "unknown";
}

/// Process exit code for a failure category (documented in README.md):
///   0 success · 1 tool-specific "did not converge" · 2 CLI usage error ·
///   3 invalid configuration · 4 parse error · 5 I/O error ·
///   6 numerical guard / budget exhaustion / internal error.
inline int exit_code_for(ErrorCategory c) noexcept {
  switch (c) {
    case ErrorCategory::kNone: return 0;
    case ErrorCategory::kInvalidArgument:
    case ErrorCategory::kInvalidConfig: return 3;
    case ErrorCategory::kParse: return 4;
    case ErrorCategory::kIo: return 5;
    case ErrorCategory::kNumericalGuard:
    case ErrorCategory::kResourceExhausted:
    case ErrorCategory::kInternal: return 6;
  }
  return 6;
}

/// The count a double read from outside bytes (a flag, a wire field, a
/// trace header) names, or nullopt unless it is a whole number that fits
/// std::size_t. The range is checked before the cast: casting a double
/// at or past 2^64 (or a NaN) to an integer is undefined behaviour.
inline std::optional<std::size_t> size_from_double(double d) noexcept {
  // 2^digits, exact in a double: the first value past std::size_t's range.
  constexpr double kLimit =
      2.0 * static_cast<double>(std::size_t{1} << (std::numeric_limits<std::size_t>::digits - 1));
  if (!(d >= 0.0 && d < kLimit)) return std::nullopt;
  const auto n = static_cast<std::size_t>(d);
  if (static_cast<double>(n) != d) return std::nullopt;
  return n;
}

/// One structured failure record. Unused context fields keep their
/// sentinel values (`npos` / -1 / empty) and are omitted from describe().
struct Diagnostics {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  ErrorCategory category = ErrorCategory::kNone;
  /// The invariant that was violated, stated positively — e.g.
  /// "occupancy pmf conserves mass" or "utilization < 1".
  std::string invariant;
  /// Human-readable detail: what was observed, with values.
  std::string message;
  /// Component that raised it, e.g. "queueing.solver" or "traffic.trace".
  std::string component;

  // Solver context (meaningful for kNumericalGuard / kResourceExhausted).
  std::size_t iteration = npos;  ///< Total iteration count at detection.
  std::size_t level = npos;      ///< Discretization level (1-based) at detection.
  std::size_t bins = npos;       ///< Bin count M of that level.
  /// Last discretization level whose state passed every health check
  /// (0 = none); the solver's graceful-degradation result is taken there.
  std::size_t last_healthy_level = npos;

  // Input context (meaningful for kParse).
  long line = -1;  ///< 1-based line number in the offending input.

  /// One-line summary: "[category] component: message (invariant: ...; ...)".
  std::string describe() const {
    std::string out = "[";
    out += category_name(category);
    out += "]";
    if (!component.empty()) {
      out += " ";
      out += component;
      out += ":";
    }
    if (!message.empty()) {
      out += " ";
      out += message;
    }
    std::string ctx;
    auto append = [&ctx](const std::string& piece) {
      if (!ctx.empty()) ctx += "; ";
      ctx += piece;
    };
    if (!invariant.empty()) append("invariant: " + invariant);
    if (line >= 0) append("line " + std::to_string(line));
    if (iteration != npos) append("iteration " + std::to_string(iteration));
    if (level != npos) append("level " + std::to_string(level));
    if (bins != npos) append("bins " + std::to_string(bins));
    if (last_healthy_level != npos)
      append("last healthy level " + std::to_string(last_healthy_level));
    if (!ctx.empty()) {
      out += " (";
      out += ctx;
      out += ")";
    }
    return out;
  }
};

/// Success-or-diagnostics result for operations with no payload.
class Status {
 public:
  Status() = default;  // ok
  static Status ok() { return Status(); }
  static Status failure(Diagnostics d) {
    Status s;
    s.diag_ = std::move(d);
    if (s.diag_.category == ErrorCategory::kNone) s.diag_.category = ErrorCategory::kInternal;
    return s;
  }

  bool is_ok() const noexcept { return diag_.category == ErrorCategory::kNone; }
  explicit operator bool() const noexcept { return is_ok(); }
  ErrorCategory category() const noexcept { return diag_.category; }
  const Diagnostics& diagnostics() const noexcept { return diag_; }
  std::string describe() const { return is_ok() ? "ok" : diag_.describe(); }

 private:
  Diagnostics diag_;  // category kNone <=> ok
};

/// Value-or-diagnostics result (a deliberately small std::expected stand-in;
/// T must be movable but need not be default-constructible).
template <typename T>
class Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}                     // NOLINT(google-explicit-constructor)
  Expected(Diagnostics d) : status_(Status::failure(std::move(d))) {} // NOLINT(google-explicit-constructor)
  Expected(Status s) : status_(std::move(s)) {                        // NOLINT(google-explicit-constructor)
    if (status_.is_ok()) {
      Diagnostics d;
      d.category = ErrorCategory::kInternal;
      d.component = "core.status";
      d.message = "Expected<T> constructed from an ok Status without a value";
      status_ = Status::failure(std::move(d));
    }
  }

  bool has_value() const noexcept { return value_.has_value(); }
  explicit operator bool() const noexcept { return has_value(); }
  const Status& status() const noexcept { return status_; }
  const Diagnostics& diagnostics() const noexcept { return status_.diagnostics(); }

  /// Value access; requires has_value() (throws std::logic_error otherwise
  /// — reaching that throw is a caller bug, not a data error).
  T& value() & { return require(), *value_; }
  const T& value() const& { return require(), *value_; }
  T&& take() && { return require(), std::move(*value_); }

 private:
  void require() const {
    if (!has_value())
      throw std::logic_error("Expected: value() on error state: " + status_.describe());
  }

  std::optional<T> value_;
  Status status_;  // ok iff value_ is engaged
};

/// Mixin that exposes the structured record on thrown exceptions. Catch
/// sites that only care about the record use `diagnostics_of` below.
class WithDiagnostics {
 public:
  virtual ~WithDiagnostics() = default;
  const Diagnostics& diagnostics() const noexcept { return diag_; }

 protected:
  explicit WithDiagnostics(Diagnostics d) : diag_(std::move(d)) {}

 private:
  Diagnostics diag_;
};

/// Invalid configuration / argument. Derives from std::invalid_argument so
/// pre-taxonomy catch sites (and tests) keep working.
class ConfigError : public std::invalid_argument, public WithDiagnostics {
 public:
  explicit ConfigError(Diagnostics d)
      : std::invalid_argument(d.describe()), WithDiagnostics(std::move(d)) {}
};

/// Data-plane failure (parse, I/O, numerical guard, budget exhaustion).
/// Derives from std::runtime_error for the same compatibility reason.
class DataError : public std::runtime_error, public WithDiagnostics {
 public:
  explicit DataError(Diagnostics d)
      : std::runtime_error(d.describe()), WithDiagnostics(std::move(d)) {}
};

/// Structured record attached to `e`, or nullptr for plain exceptions.
inline const Diagnostics* diagnostics_of(const std::exception& e) noexcept {
  const auto* with = dynamic_cast<const WithDiagnostics*>(&e);
  return with ? &with->diagnostics() : nullptr;
}

/// Throws the exception type matching `d.category` (ConfigError for
/// argument/config categories, DataError otherwise).
[[noreturn]] inline void throw_error(Diagnostics d) {
  switch (d.category) {
    case ErrorCategory::kInvalidArgument:
    case ErrorCategory::kInvalidConfig: throw ConfigError(std::move(d));
    default: throw DataError(std::move(d));
  }
}

/// Convenience builder for the common "component + category + invariant +
/// message" shape.
inline Diagnostics make_diagnostics(ErrorCategory category, std::string component,
                                    std::string invariant, std::string message) {
  Diagnostics d;
  d.category = category;
  d.component = std::move(component);
  d.invariant = std::move(invariant);
  d.message = std::move(message);
  return d;
}

}  // namespace lrd
