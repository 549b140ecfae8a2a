// Minimal JSON reader for the artifact-analysis layer and the serve
// protocol.
//
// The observability tools emit JSON (manifests, metrics snapshots, Chrome
// traces, bench history lines) and also *consume* it; lrdq_serve reads
// every query line with it. This is the one reader they share: a strict
// recursive-descent parser into a small Value tree, the whole-file read
// every loader uses, and the lenient line splitter every JSONL loader
// uses. Malformed input comes back as a kParse diagnostic carrying the
// 1-based line number, matching the RateTrace::try_load contract, so
// `lrdq_doctor profile broken.json` points at the offending line instead
// of aborting.
//
// The parser builds each string, array element and object member in its
// final slot, and converts each number where it lies with
// std::from_chars, which rounds correctly: a number printed with %.17g
// reads back to the same bits. Numbers follow the JSON grammar with three
// leniencies: leading zeros (`01`), a bare leading point (`.5`) and a
// bare trailing point (`1.`). A leading `+` is rejected, as JSON
// requires. Subnormals (`5e-324`) are accepted; a value that overflows
// (`1e400`) or underflows to zero (`1e-400`) is rejected.
//
// Scope is deliberately narrow: UTF-8 pass-through (no surrogate-pair
// decoding beyond \uXXXX -> UTF-8), doubles only (the artifacts never need
// 64-bit-exact integers above 2^53), objects preserve insertion order and
// keep duplicate keys (find() returns the first).
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/status.hpp"

namespace lrd::obs::json {

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;
  static Value null() { return Value(); }
  static Value boolean(bool b) {
    Value v(Type::kBool);
    v.bool_ = b;
    return v;
  }
  static Value number(double n) {
    Value v(Type::kNumber);
    v.number_ = n;
    return v;
  }
  static Value string(std::string s) {
    Value v(Type::kString);
    v.string_ = std::move(s);
    return v;
  }
  static Value array() { return Value(Type::kArray); }
  static Value object() { return Value(Type::kObject); }

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  /// Typed access with a fallback — the idiom the analyzers use for
  /// optional keys ("seconds" may be null for a degraded cell).
  bool as_bool(bool fallback = false) const noexcept {
    return is_bool() ? bool_ : fallback;
  }
  double as_number(double fallback = 0.0) const noexcept {
    return is_number() ? number_ : fallback;
  }
  const std::string& as_string() const noexcept { return string_; }

  const std::vector<Value>& items() const noexcept { return items_; }
  const std::vector<std::pair<std::string, Value>>& members() const noexcept {
    return members_;
  }
  std::size_t size() const noexcept {
    return is_object() ? members_.size() : items_.size();
  }

  /// First member named `key`, or nullptr (also nullptr on non-objects).
  const Value* find(std::string_view key) const noexcept;
  /// find() that treats an explicit JSON null the same as an absent key.
  const Value* find_non_null(std::string_view key) const noexcept;
  /// Shorthand: number at `key`, or `fallback` when absent/null/non-number.
  double number_at(std::string_view key, double fallback = 0.0) const noexcept;
  /// Shorthand: string at `key`, or `fallback` when absent or non-string.
  std::string string_at(std::string_view key, std::string fallback = {}) const;
  /// Whole number at `key` that fits `Int` (a count, an id, a tid, an
  /// exit code), or `fallback` when absent, non-number, fractional,
  /// negative or out of range: artifacts are outside bytes, and casting an
  /// out-of-range double to an integer is undefined behaviour.
  template <typename Int = std::size_t>
  Int count_at(std::string_view key, std::type_identity_t<Int> fallback = 0) const noexcept {
    const auto n = lrd::size_from_double(number_at(key, -1.0));
    return n && *n <= static_cast<std::size_t>(std::numeric_limits<Int>::max())
               ? static_cast<Int>(*n)
               : fallback;
  }

  // Mutation, for code that builds a document (the reader in json.cpp
  // fills its values in place instead).
  void push_back(Value v) {
    type_ = Type::kArray;
    items_.push_back(std::move(v));
  }
  void set(std::string key, Value v) {
    type_ = Type::kObject;
    members_.emplace_back(std::move(key), std::move(v));
  }

 private:
  friend class Parser;

  explicit Value(Type type) : type_(type) {}

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses one complete JSON document (trailing whitespace allowed,
/// anything else after the value is an error).
lrd::Expected<Value> parse(std::string_view text);

/// Reads a whole file; kIo when it cannot be opened or read.
lrd::Expected<std::string> read_file(const std::string& path);

/// Reads and parses a whole file; kIo when unreadable, kParse when
/// malformed (diagnostic carries `path` and the line number).
lrd::Expected<Value> parse_file(const std::string& path);

/// The objects of a JSONL text, one per nonblank line. Lenient, for
/// artifacts a crash may have torn: a line that is not a JSON object, or
/// whose "schema" is not `schema` (unless `schema` is empty), is counted
/// in `*malformed` (when non-null) and skipped.
std::vector<Value> parse_lines(std::string_view text, std::string_view schema,
                               std::size_t* malformed);

/// Escapes `s` into a JSON string literal including the quotes — the
/// serialization counterpart shared by the emitters in this layer.
std::string escape(std::string_view s);

/// Formats a double as a JSON number (`%.9g`); NaN/Inf become null (JSON
/// has no literals for them).
std::string number_text(double v);

}  // namespace lrd::obs::json
