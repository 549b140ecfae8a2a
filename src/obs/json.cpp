#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <system_error>

namespace lrd::obs::json {

const Value* Value::find(std::string_view key) const noexcept {
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

const Value* Value::find_non_null(std::string_view key) const noexcept {
  const Value* v = find(key);
  return v != nullptr && !v->is_null() ? v : nullptr;
}

double Value::number_at(std::string_view key, double fallback) const noexcept {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->as_number() : fallback;
}

std::string Value::string_at(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::move(fallback);
}

/// Strict recursive-descent parser. Tracks the current line for the
/// kParse diagnostic; depth is capped so a pathological input cannot
/// overflow the stack. A friend of Value, so it builds each value in its
/// final slot.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  lrd::Expected<Value> run() {
    Value v;
    if (!parse_value(v, 0)) return take_error();
    skip_whitespace();
    if (pos_ != text_.size()) return fail("trailing content after the JSON value");
    return v;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  // Each parse_* fills `out` where it lies. `out` is always a fresh
  // default (null) Value: the root, a new array slot or a new member, and
  // nothing else touches the container holding it until the call returns.
  bool parse_value(Value& out, std::size_t depth) {
    if (depth > kMaxDepth) return set_error("nesting deeper than 64 levels");
    skip_whitespace();
    if (pos_ >= text_.size()) return set_error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"':
        out.type_ = Value::Type::kString;
        return parse_string(out.string_);
      case 't': return parse_bool(out, "true", true);
      case 'f': return parse_bool(out, "false", false);
      case 'n': return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out, std::size_t depth) {
    ++pos_;  // '{'
    out.type_ = Value::Type::kObject;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') return set_error("expected a string object key");
      auto& [key, member] = out.members_.emplace_back();
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (peek() != ':') return set_error("expected ':' after object key");
      ++pos_;
      if (!parse_value(member, depth + 1)) return false;
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or '}' in object");
    }
  }

  bool parse_array(Value& out, std::size_t depth) {
    ++pos_;  // '['
    out.type_ = Value::Type::kArray;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!parse_value(out.items_.emplace_back(), depth + 1)) return false;
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return set_error("expected ',' or ']' in array");
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      // The run of plain bytes up to the next quote, escape or newline is
      // appended in one piece.
      const std::size_t run = text_.find_first_of("\"\\\n", pos_);
      const std::size_t end = run == std::string_view::npos ? text_.size() : run;
      out.append(text_.data() + pos_, end - pos_);
      pos_ = end;
      if (pos_ == text_.size()) break;
      const char ch = text_[pos_];
      if (ch == '"') {
        ++pos_;
        return true;
      }
      if (ch == '\n') return set_error("unterminated string literal");
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return set_error("unterminated escape sequence");
      switch (text_[pos_]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 >= text_.size()) return set_error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 1; i <= 4; ++i) {
            const char hex = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code += static_cast<unsigned>(hex - '0');
            else if (hex >= 'a' && hex <= 'f') code += static_cast<unsigned>(hex - 'a') + 10;
            else if (hex >= 'A' && hex <= 'F') code += static_cast<unsigned>(hex - 'A') + 10;
            else return set_error("invalid \\u escape");
          }
          pos_ += 4;
          // Encode the code point as UTF-8 (surrogates pass through as
          // three-byte sequences; the artifacts never contain them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: return set_error("unknown escape sequence");
      }
      ++pos_;
    }
    return set_error("unterminated string literal");
  }

  /// The token is the maximal run of number characters; std::from_chars
  /// converts it where it lies and must consume all of it. It rounds
  /// correctly, takes no leading '+', and answers result_out_of_range for
  /// a value that overflows or underflows to zero (a subnormal result is
  /// in range).
  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() && (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                                   text_[pos_] == '.' || text_[pos_] == 'e' ||
                                   text_[pos_] == 'E' || text_[pos_] == '+' ||
                                   text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return set_error("unexpected character");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, out.number_);
    if (ec != std::errc() || end != last)
      return set_error("malformed number '" + std::string(first, last) + "'");
    out.type_ = Value::Type::kNumber;
    return true;
  }

  bool parse_bool(Value& out, const char* word, bool value) {
    if (!literal(word)) return false;
    out.type_ = Value::Type::kBool;
    out.bool_ = value;
    return true;
  }

  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (text_.compare(pos_, n, word) != 0)
      return set_error(std::string("expected '") + word + "'");
    pos_ += n;
    return true;
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '\n') ++line_;
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  char peek() const noexcept { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool set_error(std::string message) {
    if (error_.empty()) error_ = std::move(message);
    return false;
  }

  lrd::Expected<Value> fail(std::string message) {
    set_error(std::move(message));
    return take_error();
  }

  lrd::Expected<Value> take_error() {
    lrd::Diagnostics d = lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.json",
                                               "input is well-formed JSON", error_);
    d.line = static_cast<long>(line_);
    return d;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::string error_;
};

lrd::Expected<Value> parse(std::string_view text) { return Parser(text).run(); }

lrd::Expected<std::string> read_file(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.json",
                                 "artifact file is readable", "cannot open " + path);
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) text.append(buf, n);
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "obs.json",
                                 "artifact file is readable", "read failure on " + path);
  }
  return text;
}

lrd::Expected<Value> parse_file(const std::string& path) {
  auto text = read_file(path);
  if (!text) return text.diagnostics();
  auto parsed = parse(text.value());
  if (!parsed) {
    lrd::Diagnostics d = parsed.diagnostics();
    d.message = path + ": " + d.message;
    return d;
  }
  return parsed;
}

std::vector<Value> parse_lines(std::string_view text, std::string_view schema,
                               std::size_t* malformed) {
  std::vector<Value> out;
  std::size_t skipped = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t nl = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty()) continue;
    auto parsed = parse(line);
    if (!parsed || !parsed.value().is_object() ||
        (!schema.empty() && parsed.value().string_at("schema") != schema)) {
      ++skipped;
      continue;
    }
    out.push_back(std::move(parsed).take());
  }
  if (malformed != nullptr) *malformed += skipped;
  return out;
}

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

std::string number_text(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace lrd::obs::json
