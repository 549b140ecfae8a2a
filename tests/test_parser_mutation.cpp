// Seeded mutation tests of the two parsers of outside bytes that have no
// file-format checksum to lean on: serve protocol query lines
// (serve::parse_query) and rate trace files (RateTrace::try_load). Each
// parser sees 200 trials from a fixed seed, 40 of each mutation: a byte
// flip, truncation at a random offset, a duplicated span, a number token
// replaced by an extreme (1e300, -1e300, 2^64, the smallest subnormal,
// -0), and a value swapped for one of another type. Every trial must keep
// the parser's contract:
//   * it never throws;
//   * it yields a value, or a kParse / kInvalidConfig diagnostic;
//   * a parsed trace holds exactly its header's count of rates, each
//     finite and >= 0;
//   * a query line that fails to parse gets, through
//     QueryService::execute_line, a kError response whose code is the
//     category's exit code and whose JSON parses back.
// A plain gtest with no fuzzing engine: the seed makes every trial
// reproducible, and the suite runs unchanged under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/status.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "traffic/trace.hpp"

namespace {

using namespace lrd;

constexpr int kTrials = 200;

enum class Mutation { kFlip, kTruncate, kDuplicateSpan, kExtremeNumber, kSwapType };
constexpr int kMutationKinds = 5;

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kFlip: return "byte flip";
    case Mutation::kTruncate: return "truncation";
    case Mutation::kDuplicateSpan: return "duplicated span";
    case Mutation::kExtremeNumber: return "extreme number";
    case Mutation::kSwapType: return "type swap";
  }
  return "?";
}

/// The valid query lines of the serve tests.
const std::vector<std::string> kQueryLines = {
    R"({"rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3], "cutoff": 5, "buffer": 0.2})",
    R"({"id": "c", "rates": [2, 6, 10], "probs": [0.3, 0.4, 0.3], "cutoff": 5, "buffer": 0.2})",
    R"({"id": "q1", "op": "solve", "rates": [2, 10], "probs": [0.5, 0.5], "hurst": 0.9, )"
    R"("mean_epoch": 0.08, "cutoff": "inf", "utilization": 0.7, "buffer": 1.5, "gap": 0.1, )"
    R"("max_bins": 4096, "deadline_ms": 250, "target_loss": 1e-4, "cache": false})",
    R"({"op": "ping", "id": "p"})",
    R"({"op": "stats"})",
    R"({"op": "invalidate"})",
    R"({"op": "dump", "id": "d"})",
};

/// 16 samples over four body lines.
const std::string kTrace =
    "0.01 16\n"
    "1.5 0 2.25 3\n"
    "0.75 4 1 2\n"
    "5.5 0.5 6 1.25\n"
    "2 3.5 0 7\n";

const char* const kExtremes[] = {"1e300", "-1e300", "18446744073709551616", "5e-324", "-0"};

/// A half-open byte span of one value token.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool is_string = false;
};

/// Number and string tokens outside string literals (a trace has only
/// numbers). A number is a maximal run of [0-9+-.eE] that starts with a
/// digit, '-' or '.'.
std::vector<Span> value_tokens(const std::string& text) {
  const auto numeric = [](char c) {
    return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' || c == 'e' || c == 'E';
  };
  std::vector<Span> out;
  for (std::size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"') {
      std::size_t j = i + 1;
      while (j < text.size() && text[j] != '"') j += text[j] == '\\' ? 2 : 1;
      j = std::min(j + 1, text.size());
      out.push_back({i, j, true});
      i = j;
    } else if ((c >= '0' && c <= '9') || c == '-' || c == '.') {
      std::size_t j = i;
      while (j < text.size() && numeric(text[j])) ++j;
      out.push_back({i, j, false});
      i = j;
    } else {
      ++i;
    }
  }
  return out;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  /// Raw engine output only: mt19937_64's sequence is fixed by the
  /// standard, the distributions' are not.
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(rng_() % n); }

  std::string apply(Mutation m, std::string bytes) {
    switch (m) {
      case Mutation::kFlip: {
        const std::size_t at = below(bytes.size());
        bytes[at] = static_cast<char>(static_cast<unsigned char>(bytes[at]) ^ (1 + below(255)));
        break;
      }
      case Mutation::kTruncate: bytes.resize(below(bytes.size())); break;
      case Mutation::kDuplicateSpan: {
        const std::size_t from = below(bytes.size());
        const std::size_t len = 1 + below(std::min<std::size_t>(16, bytes.size() - from));
        bytes.insert(below(bytes.size() + 1), bytes.substr(from, len));
        break;
      }
      case Mutation::kExtremeNumber: {
        std::vector<Span> numbers;
        for (const Span& s : value_tokens(bytes))
          if (!s.is_string) numbers.push_back(s);
        const Span s = numbers[below(numbers.size())];
        bytes.replace(s.begin, s.end - s.begin, kExtremes[below(std::size(kExtremes))]);
        break;
      }
      case Mutation::kSwapType: {
        // Each value becomes one of a different JSON type.
        static const char* const kForNumber[] = {R"("7")", "true", "null", "[1]", "{}"};
        static const char* const kForString[] = {"7", "false", "null", R"(["x"])", "{}"};
        const auto tokens = value_tokens(bytes);
        const Span s = tokens[below(tokens.size())];
        const char* swapped = s.is_string ? kForString[below(std::size(kForString))]
                                          : kForNumber[below(std::size(kForNumber))];
        bytes.replace(s.begin, s.end - s.begin, swapped);
        break;
      }
    }
    return bytes;
  }

 private:
  std::mt19937_64 rng_;
};

/// True when `text` holds a token `kind` can rewrite (the control ops'
/// query lines carry no number).
bool applicable(Mutation kind, const std::string& text) {
  if (kind != Mutation::kExtremeNumber) return true;
  for (const Span& s : value_tokens(text))
    if (!s.is_string) return true;
  return false;
}

bool is_input_category(ErrorCategory c) {
  return c == ErrorCategory::kParse || c == ErrorCategory::kInvalidConfig;
}

/// The sample count a trace's header declares (the text parsed, so the
/// header is well formed).
double declared_count(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line) && line.find_first_not_of(" \t\r") == std::string::npos) {
  }
  std::istringstream header(line);
  std::string delta, count;
  header >> delta >> count;
  return std::strtod(count.c_str(), nullptr);
}

TEST(ParserMutation, QueryLinesYieldAQueryOrATypedErrorResponse) {
  Mutator mutator(0x9e7e'5e17'ab1e'0001ull);
  const serve::QueryService service(nullptr);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    std::string seed;
    do {
      seed = kQueryLines[mutator.below(kQueryLines.size())];
    } while (!applicable(kind, seed));
    const std::string line = mutator.apply(kind, seed);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind) + ": " + line);

    std::optional<Expected<serve::Query>> parsed;
    ASSERT_NO_THROW(parsed.emplace(serve::parse_query(line)));
    if (parsed->has_value()) continue;
    const ErrorCategory category = parsed->status().category();
    EXPECT_TRUE(is_input_category(category)) << category_name(category);

    serve::Response response;
    ASSERT_NO_THROW(response = service.execute_line(line));
    EXPECT_EQ(response.status, serve::QueryStatus::kError);
    EXPECT_EQ(response.code(), exit_code_for(category));
    const std::string wire = response.to_json();
    const auto back = obs::json::parse(wire);
    ASSERT_TRUE(back.has_value()) << wire;
    EXPECT_TRUE(back.value().is_object()) << wire;
  }
}

TEST(ParserMutation, TraceFilesYieldTheirDeclaredRatesOrAParseError) {
  Mutator mutator(0x9e7e'5e17'ab1e'0002ull);
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto kind = static_cast<Mutation>(trial % kMutationKinds);
    const std::string text = mutator.apply(kind, kTrace);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + mutation_name(kind) + ": " + text);

    std::istringstream in(text);
    std::optional<Expected<traffic::RateTrace>> parsed;
    ASSERT_NO_THROW(parsed.emplace(traffic::RateTrace::try_load(in)));
    if (!parsed->has_value()) {
      EXPECT_TRUE(is_input_category(parsed->status().category()))
          << category_name(parsed->status().category());
      continue;
    }
    const traffic::RateTrace& trace = parsed->value();
    EXPECT_EQ(static_cast<double>(trace.size()), declared_count(text));
    for (double r : trace.rates()) EXPECT_TRUE(std::isfinite(r) && r >= 0.0) << r;
  }
}

}  // namespace
