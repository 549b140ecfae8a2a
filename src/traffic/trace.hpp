// Rate traces: a sequence of fluid rates averaged over fixed-length bins.
//
// This mirrors the paper's trace data ("each trace element is a rate
// averaged over a 10 ms interval" for Bellcore, 33 ms frames for MTV).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace lrd::traffic {

class RateTrace {
 public:
  /// `bin_seconds` is the averaging interval Delta; rates are in Mb/s.
  RateTrace(std::vector<double> rates, double bin_seconds);

  std::size_t size() const noexcept { return rates_.size(); }
  double bin_seconds() const noexcept { return bin_seconds_; }
  double duration() const noexcept { return bin_seconds_ * static_cast<double>(rates_.size()); }
  const std::vector<double>& rates() const noexcept { return rates_; }
  double operator[](std::size_t i) const noexcept { return rates_[i]; }

  double mean() const noexcept;
  double variance() const noexcept;
  double min() const noexcept;
  double max() const noexcept;

  /// First `n` samples.
  RateTrace head(std::size_t n) const;

  /// Work (Mb) arriving in bin i: rate * Delta.
  double work(std::size_t i) const noexcept { return rates_[i] * bin_seconds_; }
  double total_work() const noexcept;

  /// Plain-text round trip: first line "<bin_seconds> <n>", then one rate
  /// per line.
  void save(std::ostream& os) const;
  void save_file(const std::string& path) const;

  /// Parses a trace, reporting malformed input as a structured, line-
  /// numbered kParse diagnostic (NaN, Inf and negative rates are
  /// rejected; a header whose count disagrees with the body names the
  /// line where the data ran out). I/O failures come back as kIo.
  static lrd::Expected<RateTrace> try_load(std::istream& is);
  static lrd::Expected<RateTrace> try_load_file(const std::string& path);

  /// Throwing wrapper over try_load_file (lrd::DataError, which is-a
  /// std::runtime_error).
  static RateTrace load_file(const std::string& path);

 private:
  std::vector<double> rates_;
  double bin_seconds_;
};

}  // namespace lrd::traffic
