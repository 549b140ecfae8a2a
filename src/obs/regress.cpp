#include "obs/regress.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "obs/fmt.hpp"

namespace lrd::obs {

double median_of(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

RobustStats robust_stats(std::vector<double> values) {
  RobustStats s;
  s.values = std::move(values);
  if (s.values.empty()) return s;
  s.median = median_of(s.values);
  s.min = *std::min_element(s.values.begin(), s.values.end());
  double total = 0.0;
  std::vector<double> deviations;
  deviations.reserve(s.values.size());
  for (double v : s.values) {
    total += v;
    deviations.push_back(std::abs(v - s.median));
  }
  s.mean = total / static_cast<double>(s.values.size());
  s.mad = median_of(std::move(deviations));
  return s;
}

OverheadEstimate estimate_overhead(const RobustStats& off, const RobustStats& on) {
  OverheadEstimate e;
  if (off.median <= 0.0) return e;
  e.raw_percent = 100.0 * (on.median - off.median) / off.median;
  // Jitter of the difference of two medians: both sides contribute.
  e.noise_floor_percent = 100.0 * (off.mad + on.mad) / off.median;
  e.below_noise_floor = std::abs(e.raw_percent) <= e.noise_floor_percent;
  e.percent = std::max(0.0, e.raw_percent);
  return e;
}

const double* BenchHistoryRecord::metric(const std::string& name) const noexcept {
  for (const auto& [metric_name, value] : metrics)
    if (metric_name == name) return &value;
  return nullptr;
}

namespace {

lrd::Diagnostics record_error(std::string message) {
  return lrd::make_diagnostics(lrd::ErrorCategory::kParse, "obs.regress",
                               "history line follows the lrd-bench-v1 schema",
                               std::move(message));
}

}  // namespace

lrd::Expected<BenchHistoryRecord> parse_bench_record(const json::Value& line) {
  if (!line.is_object()) return record_error("history line is not a JSON object");
  const std::string schema = line.string_at("schema");
  if (schema != "lrd-bench-v1")
    return record_error("unknown schema '" + schema + "' (want lrd-bench-v1)");

  BenchHistoryRecord rec;
  rec.bench = line.string_at("bench");
  rec.key = line.string_at("key");
  rec.unit = line.string_at("unit");
  if (rec.bench.empty() || rec.key.empty() || rec.unit.empty())
    return record_error("record is missing bench/key/unit");
  const json::Value* median = line.find_non_null("median");
  if (median == nullptr || !median->is_number())
    return record_error("record for '" + rec.key + "' has no numeric median");
  rec.median = median->as_number();
  rec.mad = line.number_at("mad");
  rec.min = line.number_at("min");
  rec.mean = line.number_at("mean");
  rec.repeats = line.count_at("repeats");
  rec.warmup = line.count_at("warmup");
  rec.timestamp_unix = line.count_at<long long>("timestamp_unix");
  if (const json::Value* values = line.find_non_null("values"); values && values->is_array())
    for (const json::Value& v : values->items())
      if (v.is_number()) rec.values.push_back(v.as_number());
  if (const json::Value* metrics = line.find_non_null("metrics"); metrics && metrics->is_object())
    for (const auto& [name, v] : metrics->members())
      if (v.is_number()) rec.metrics.emplace_back(name, v.as_number());
  if (const json::Value* env = line.find_non_null("env"); env && env->is_object()) {
    rec.git_describe = env->string_at("git_describe");
    rec.build_type = env->string_at("build_type");
    rec.compiler = env->string_at("compiler");
    rec.cpu_count = env->count_at("cpu_count");
    rec.simd = env->string_at("simd");  // empty on pre-field records
    if (const json::Value* obs = env->find("obs_enabled")) rec.obs_enabled = obs->as_bool(true);
  }
  return rec;
}

lrd::Expected<std::vector<BenchHistoryRecord>> load_bench_history(const std::string& path) {
  auto read = json::read_file(path);
  if (!read) return read.diagnostics();
  const std::string& text = read.value();

  std::vector<BenchHistoryRecord> records;
  std::size_t start = 0;
  long line_number = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++line_number;
    std::string_view line(text.data() + start, end - start);
    start = end + 1;
    // Skip blank lines (including a trailing newline's empty remainder).
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) {
      if (end == text.size()) break;
      continue;
    }
    auto value = json::parse(line);
    if (!value) {
      lrd::Diagnostics d = value.diagnostics();
      d.message = path + ": " + d.message;
      d.line = line_number;
      return d;
    }
    auto record = parse_bench_record(value.value());
    if (!record) {
      lrd::Diagnostics d = record.diagnostics();
      d.message = path + ": " + d.message;
      d.line = line_number;
      return d;
    }
    records.push_back(std::move(record).take());
    if (end == text.size()) break;
  }
  return records;
}

lrd::Status RegressionConfig::validate() const {
  auto bad = [](std::string message) {
    return lrd::Status::failure(lrd::make_diagnostics(lrd::ErrorCategory::kInvalidConfig,
                                                      "obs.regress",
                                                      "regression gate config is sane",
                                                      std::move(message)));
  };
  if (baseline_window == 0) return bad("baseline_window must be >= 1");
  if (!(max_slowdown >= 0.0)) return bad("max_slowdown must be >= 0");
  if (!(mad_k >= 0.0)) return bad("mad_k must be >= 0");
  if (!(metric_slack >= 0.0)) return bad("metric_slack must be >= 0");
  return lrd::Status::ok();
}

namespace {

/// One gated quantity checked against its baseline samples.
RegressionFinding gate(const std::string& key, const std::string& metric,
                       const std::string& unit, double current,
                       const std::vector<double>& baseline_values,
                       const std::vector<double>& baseline_noise, double relative_floor,
                       double mad_k) {
  RegressionFinding f;
  f.key = key;
  f.metric = metric;
  f.unit = unit;
  f.current = current;
  f.baseline_records = baseline_values.size();
  f.baseline = median_of(baseline_values);
  double noise = robust_stats(baseline_values).mad;
  if (!baseline_noise.empty()) noise = std::max(noise, median_of(baseline_noise));
  f.allowed = std::max({relative_floor * std::abs(f.baseline), mad_k * noise, 1e-12});
  f.regression = f.current - f.baseline > f.allowed;
  return f;
}

std::string format_value(double v, const std::string& unit) {
  std::string out = fmt("%.4g", v);
  if (!unit.empty()) out += " " + unit;
  return out;
}

}  // namespace

RegressionReport check_regressions(std::vector<BenchHistoryRecord> history,
                                   std::vector<BenchHistoryRecord> candidates,
                                   const RegressionConfig& cfg) {
  // Group the history per key, preserving file order (oldest first).
  std::map<std::string, std::vector<BenchHistoryRecord>> by_key;
  std::vector<std::string> key_order;
  for (auto& rec : history) {
    auto [it, inserted] = by_key.try_emplace(rec.key);
    if (inserted) key_order.push_back(rec.key);
    it->second.push_back(std::move(rec));
  }

  // Resolve the candidate per key: explicit candidates win (latest
  // duplicate wins); otherwise pop the newest history record.
  std::map<std::string, BenchHistoryRecord> candidate_by_key;
  std::vector<std::string> candidate_order;
  if (candidates.empty()) {
    for (const std::string& key : key_order) {
      auto& records = by_key[key];
      candidate_by_key[key] = std::move(records.back());
      records.pop_back();
      candidate_order.push_back(key);
    }
  } else {
    for (auto& rec : candidates) {
      auto [it, inserted] = candidate_by_key.try_emplace(rec.key);
      if (inserted) candidate_order.push_back(rec.key);
      it->second = std::move(rec);
    }
  }

  RegressionReport report;
  for (const std::string& key : candidate_order) {
    const BenchHistoryRecord& candidate = candidate_by_key[key];
    std::vector<BenchHistoryRecord>* baseline = nullptr;
    if (auto it = by_key.find(key); it != by_key.end() && !it->second.empty())
      baseline = &it->second;
    if (baseline == nullptr) {
      report.keys_without_baseline.push_back(key);
      continue;
    }
    const std::size_t window = std::min(cfg.baseline_window, baseline->size());
    const auto* first = baseline->data() + (baseline->size() - window);

    ++report.keys_checked;

    // Wall time (or whatever the record's primary unit measures).
    std::vector<double> centers, noises;
    for (std::size_t i = 0; i < window; ++i) {
      if (first[i].unit != candidate.unit) continue;  // unit changed; not comparable
      centers.push_back(first[i].median);
      noises.push_back(first[i].mad);
    }
    if (!centers.empty()) {
      RegressionFinding f = gate(key, "", candidate.unit, candidate.median, centers, noises,
                                 cfg.max_slowdown, cfg.mad_k);
      if (f.regression) ++report.regressions;
      report.findings.push_back(std::move(f));
    }

    // Gated lower-is-better telemetry metrics.
    for (const std::string& name : cfg.gated_metrics) {
      const double* current = candidate.metric(name);
      if (current == nullptr) continue;
      std::vector<double> values;
      for (std::size_t i = 0; i < window; ++i)
        if (const double* v = first[i].metric(name)) values.push_back(*v);
      if (values.empty()) continue;
      RegressionFinding f =
          gate(key, name, "", *current, values, {}, cfg.metric_slack, cfg.mad_k);
      if (f.regression) ++report.regressions;
      report.findings.push_back(std::move(f));
    }
  }
  return report;
}

std::string RegressionReport::to_text() const {
  std::string out;
  for (const RegressionFinding& f : findings) {
    std::string what = f.key;
    if (!f.metric.empty()) what += "#" + f.metric;
    out += fmt("[%s] %-44s %s vs %s (%+.1f%%, allowed +%s, window %zu)\n",
               f.regression ? "REGR" : " ok ", what.c_str(), format_value(f.current, f.unit).c_str(),
               format_value(f.baseline, f.unit).c_str(), 100.0 * f.relative(),
               format_value(f.allowed, f.unit).c_str(), f.baseline_records);
  }
  for (const std::string& key : keys_without_baseline)
    out += "[ new] " + key + " (no baseline yet; recorded, not gated)\n";
  out += fmt("checked %zu keys, %zu new: %zu regression%s\n", keys_checked,
             keys_without_baseline.size(), regressions, regressions == 1 ? "" : "s");
  return out;
}

std::string RegressionReport::to_json() const {
  std::string out = "{\n  \"kind\": \"bench-check\",\n";
  out += "  \"keys_checked\": " + std::to_string(keys_checked) + ",\n";
  out += "  \"regressions\": " + std::to_string(regressions) + ",\n";
  out += "  \"keys_without_baseline\": [";
  for (std::size_t i = 0; i < keys_without_baseline.size(); ++i) {
    if (i) out += ", ";
    out += json::escape(keys_without_baseline[i]);
  }
  out += "],\n  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const RegressionFinding& f = findings[i];
    out += i == 0 ? "\n    " : ",\n    ";
    out += "{ \"key\": " + json::escape(f.key);
    out += ", \"metric\": " + json::escape(f.metric);
    out += ", \"unit\": " + json::escape(f.unit);
    out += ", \"baseline\": " + json::number_text(f.baseline);
    out += ", \"current\": " + json::number_text(f.current);
    out += ", \"allowed\": " + json::number_text(f.allowed);
    out += ", \"relative\": " + json::number_text(f.relative());
    out += ", \"baseline_records\": " + std::to_string(f.baseline_records);
    out += std::string(", \"regression\": ") + (f.regression ? "true" : "false") + " }";
  }
  out += findings.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace lrd::obs
