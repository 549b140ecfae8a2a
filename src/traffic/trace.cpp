#include "traffic/trace.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "core/failpoint.hpp"
#include "numerics/special_functions.hpp"

namespace lrd::traffic {

RateTrace::RateTrace(std::vector<double> rates, double bin_seconds)
    : rates_(std::move(rates)), bin_seconds_(bin_seconds) {
  auto bad = [](std::string invariant, std::string message) {
    return lrd::ConfigError(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidArgument,
                                                  "traffic.trace", std::move(invariant),
                                                  std::move(message)));
  };
  if (rates_.empty()) throw bad("trace is non-empty", "empty rate vector");
  if (!(bin_seconds > 0.0) || !std::isfinite(bin_seconds))
    throw bad("bin length is finite and > 0", "bin_seconds = " + std::to_string(bin_seconds));
  for (std::size_t i = 0; i < rates_.size(); ++i)
    if (!(rates_[i] >= 0.0) || !std::isfinite(rates_[i]))
      throw bad("every rate is finite and >= 0",
                "rate[" + std::to_string(i) + "] = " + std::to_string(rates_[i]));
}

double RateTrace::mean() const noexcept {
  return numerics::neumaier_sum(rates_) / static_cast<double>(rates_.size());
}

double RateTrace::variance() const noexcept {
  const double mu = mean();
  numerics::CompensatedSum acc;
  for (double r : rates_) {
    const double d = r - mu;
    acc.add(d * d);
  }
  return acc.value() / static_cast<double>(rates_.size());
}

double RateTrace::min() const noexcept { return *std::min_element(rates_.begin(), rates_.end()); }

double RateTrace::max() const noexcept { return *std::max_element(rates_.begin(), rates_.end()); }

RateTrace RateTrace::head(std::size_t n) const {
  if (n == 0 || n > rates_.size()) throw std::invalid_argument("RateTrace::head: bad length");
  return RateTrace(std::vector<double>(rates_.begin(), rates_.begin() + static_cast<long>(n)),
                   bin_seconds_);
}

double RateTrace::total_work() const noexcept {
  return numerics::neumaier_sum(rates_) * bin_seconds_;
}

void RateTrace::save(std::ostream& os) const {
  os.precision(17);
  os << bin_seconds_ << ' ' << rates_.size() << '\n';
  for (double r : rates_) os << r << '\n';
}

namespace {

/// Hard cap on the declared sample count: a corrupted header like
/// "0.01 999999999999" must produce a parse error, not a bad_alloc.
constexpr std::size_t kMaxSamples = std::size_t{1} << 29;  // 512M doubles = 4 GB

lrd::Diagnostics parse_error(long line, std::string invariant, std::string message) {
  auto d = lrd::make_diagnostics(lrd::ErrorCategory::kParse, "traffic.trace",
                                 std::move(invariant), std::move(message));
  d.line = line;
  return d;
}

/// Parses one double out of `token`; returns false on trailing junk.
bool parse_double(const std::string& token, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(token, &pos);
    return pos == token.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

lrd::Expected<RateTrace> RateTrace::try_load(std::istream& is) {
  std::string line_buf;
  long line_no = 0;

  // Header: "<bin_seconds> <n>" on the first non-blank line.
  double delta = 0.0;
  std::size_t n = 0;
  {
    do {
      if (!std::getline(is, line_buf))
        return parse_error(line_no, "trace starts with a \"<bin_seconds> <count>\" header",
                           "empty input: no header line");
      ++line_no;
    } while (line_buf.find_first_not_of(" \t\r") == std::string::npos);
    std::istringstream header(line_buf);
    std::string delta_tok, count_tok, extra;
    header >> delta_tok >> count_tok;
    if (count_tok.empty() || (header >> extra))
      return parse_error(line_no, "header is exactly \"<bin_seconds> <count>\"",
                         "malformed header: '" + line_buf + "'");
    if (!parse_double(delta_tok, delta) || !std::isfinite(delta) || delta <= 0.0)
      return parse_error(line_no, "bin length is finite and > 0",
                         "bad bin length '" + delta_tok + "'");
    double count_val = 0.0;
    const auto count =
        parse_double(count_tok, count_val) ? lrd::size_from_double(count_val) : std::nullopt;
    if (!count || *count == 0)
      return parse_error(line_no, "sample count is a positive integer",
                         "bad sample count '" + count_tok + "'");
    n = *count;
    if (n > kMaxSamples)
      return parse_error(line_no, "sample count is plausible (<= 2^29)",
                         "declared sample count " + std::to_string(n) + " exceeds the cap");
  }

  std::vector<double> rates;
  // The header is a claim, not a promise: reserve no more than a small
  // trace up front, so a few bytes declaring 2^29 samples cost nothing.
  rates.reserve(std::min(n, std::size_t{1} << 16));
  while (rates.size() < n && std::getline(is, line_buf)) {
    ++line_no;
    std::istringstream body(line_buf);
    std::string token;
    while (rates.size() < n && body >> token) {
      double r = 0.0;
      if (!parse_double(token, r))
        return parse_error(line_no, "every rate is a number", "unparsable rate '" + token + "'");
      if (!std::isfinite(r))
        return parse_error(line_no, "every rate is finite", "non-finite rate '" + token + "'");
      if (r < 0.0)
        return parse_error(line_no, "every rate is >= 0", "negative rate " + token);
      rates.push_back(r);
    }
  }
  if (rates.size() < n)
    return parse_error(line_no, "body holds the declared number of samples",
                       "truncated trace: got " + std::to_string(rates.size()) + " of " +
                           std::to_string(n) + " declared samples");
  return RateTrace(std::move(rates), delta);
}

lrd::Expected<RateTrace> RateTrace::try_load_file(const std::string& path) {
  std::ifstream is(path);
  if (!is || core::failpoint_hit("trace.read").io_error())
    return lrd::make_diagnostics(lrd::ErrorCategory::kIo, "traffic.trace", "trace file is readable",
                                 "cannot open " + path);
  auto result = try_load(is);
  if (!result) {
    // Re-tag with the file name so the diagnostic stands alone.
    auto d = result.diagnostics();
    d.message = path + ": " + d.message;
    return d;
  }
  return result;
}

void RateTrace::save_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os)
    lrd::throw_error(lrd::make_diagnostics(lrd::ErrorCategory::kIo, "traffic.trace",
                                           "output file is writable", "cannot open " + path));
  save(os);
  if (!os)
    lrd::throw_error(lrd::make_diagnostics(lrd::ErrorCategory::kIo, "traffic.trace",
                                           "trace written completely", "write failed: " + path));
}

RateTrace RateTrace::load_file(const std::string& path) {
  auto result = try_load_file(path);
  if (!result) lrd::throw_error(result.diagnostics());
  return std::move(result).take();
}

}  // namespace lrd::traffic
