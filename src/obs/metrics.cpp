#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"
#include "obs/ring.hpp"

namespace lrd::obs {

namespace {

std::string format_number(double v) {
  if (v != v) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

using json::escape;
using json::number_text;

}  // namespace

std::size_t thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard = next.fetch_add(1, std::memory_order_relaxed);
  return shard;
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram() {
  for (Shard& s : shards_) {
    s.buckets = std::make_unique<std::atomic<std::uint64_t>[]>(kBuckets);
    for (std::size_t i = 0; i < kBuckets; ++i) s.buckets[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN -> underflow
  int exp = 0;
  const double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  const int octave = exp - 1;            // v in [2^octave, 2^(octave+1))
  if (octave < kMinExp) return 0;
  if (octave >= kMaxExp) return kBuckets - 1;
  const auto sub = static_cast<std::size_t>((m * 2.0 - 1.0) * static_cast<double>(kSubBuckets));
  return 1 + static_cast<std::size_t>(octave - kMinExp) * kSubBuckets +
         std::min(sub, kSubBuckets - 1);
}

double Histogram::bucket_lower(std::size_t i) noexcept {
  if (i == 0) return 0.0;
  if (i >= kBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const std::size_t k = i - 1;
  const int octave = kMinExp + static_cast<int>(k / kSubBuckets);
  const double sub = static_cast<double>(k % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), octave);
}

double Histogram::bucket_upper(std::size_t i) noexcept {
  if (i == 0) return std::ldexp(1.0, kMinExp);
  if (i >= kBuckets - 1) return std::numeric_limits<double>::infinity();
  const std::size_t k = i;  // upper edge of bucket i == lower edge of bucket i+1
  const int octave = kMinExp + static_cast<int>(k / kSubBuckets);
  const double sub = static_cast<double>(k % kSubBuckets);
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), octave);
}

void Histogram::observe_impl(double v) noexcept {
  Shard& s = shards_[thread_shard() & (kShards - 1)];
  s.buckets[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  double cur = s.sum.load(std::memory_order_relaxed);
  while (!s.sum.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_)
    for (std::size_t i = 0; i < kBuckets; ++i)
      total += s.buckets[i].load(std::memory_order_relaxed);
  return total;
}

double Histogram::sum() const noexcept {
  double total = 0.0;
  for (const Shard& s : shards_) total += s.sum.load(std::memory_order_relaxed);
  return total;
}

std::vector<std::uint64_t> Histogram::snapshot() const {
  std::vector<std::uint64_t> counts(kBuckets, 0);
  for (const Shard& s : shards_)
    for (std::size_t i = 0; i < kBuckets; ++i)
      counts[i] += s.buckets[i].load(std::memory_order_relaxed);
  return counts;
}

double Histogram::quantile(double q) const {
  const auto counts = snapshot();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return std::numeric_limits<double>::quiet_NaN();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double next = cum + static_cast<double>(counts[i]);
    if (next >= target) {
      if (i == 0) return 0.0;
      const double lo = bucket_lower(i);
      if (i == kBuckets - 1) return lo;  // overflow bucket: no finite upper edge
      const double hi = bucket_upper(i);
      const double frac =
          std::clamp((target - cum) / static_cast<double>(counts[i]), 0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return bucket_lower(kBuckets - 1);
}

// ----------------------------------------------------------------- Registry

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

Registry::Entry& Registry::find_or_create(std::string_view name, std::string_view help,
                                          Kind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& e : entries_)
    if (e->name == name && e->kind == kind) return *e;
  auto e = std::make_unique<Entry>();
  e->name = std::string(name);
  e->help = std::string(help);
  e->kind = kind;
  switch (kind) {
    case Kind::kCounter: e->counter = std::make_unique<Counter>(); break;
    case Kind::kGauge: e->gauge = std::make_unique<Gauge>(); break;
    case Kind::kHistogram: e->histogram = std::make_unique<Histogram>(); break;
  }
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& Registry::counter(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, Kind::kCounter).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, Kind::kGauge).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help) {
  return *find_or_create(name, help, Kind::kHistogram).histogram;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::string Registry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  char buf[160];
  for (const auto& e : entries_) {
    out += "# HELP " + e->name + " " + e->help + "\n";
    switch (e->kind) {
      case Kind::kCounter:
        out += "# TYPE " + e->name + " counter\n";
        std::snprintf(buf, sizeof buf, "%s %llu\n", e->name.c_str(),
                      static_cast<unsigned long long>(e->counter->value()));
        out += buf;
        break;
      case Kind::kGauge:
        out += "# TYPE " + e->name + " gauge\n";
        out += e->name + " " + format_number(e->gauge->value()) + "\n";
        break;
      case Kind::kHistogram: {
        out += "# TYPE " + e->name + " histogram\n";
        const auto counts = e->histogram->snapshot();
        std::uint64_t cum = 0;
        // The overflow bucket has no finite edge; it is folded into +Inf.
        for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
          if (counts[i] == 0) continue;
          cum += counts[i];
          out += e->name + "_bucket{le=\"" + format_number(Histogram::bucket_upper(i)) +
                 "\"} " + std::to_string(cum) + "\n";
        }
        cum += counts.back();
        out += e->name + "_bucket{le=\"+Inf\"} " + std::to_string(cum) + "\n";
        out += e->name + "_sum " + format_number(e->histogram->sum()) + "\n";
        out += e->name + "_count " + std::to_string(cum) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& e : entries_) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    out += escape(e->name);
    out += ": { \"help\": ";
    out += escape(e->help);
    switch (e->kind) {
      case Kind::kCounter:
        out += ", \"type\": \"counter\", \"value\": " + std::to_string(e->counter->value()) +
               " }";
        break;
      case Kind::kGauge:
        out += ", \"type\": \"gauge\", \"value\": " + number_text(e->gauge->value()) + " }";
        break;
      case Kind::kHistogram: {
        const Histogram& h = *e->histogram;
        out += ", \"type\": \"histogram\", \"count\": " + std::to_string(h.count()) +
               ", \"sum\": " + number_text(h.sum());
        for (const auto& [label, q] :
             {std::pair{"p50", 0.5}, std::pair{"p90", 0.9}, std::pair{"p99", 0.99}}) {
          out += std::string(", \"") + label + "\": " + number_text(h.quantile(q));
        }
        out += ", \"buckets\": [";
        const auto counts = h.snapshot();
        bool first_bucket = true;
        for (std::size_t i = 0; i < counts.size(); ++i) {
          if (counts[i] == 0) continue;
          out += first_bucket ? "" : ", ";
          first_bucket = false;
          out += "{ \"le\": ";
          out += escape(format_number(Histogram::bucket_upper(i)));
          out += ", \"count\": " + std::to_string(counts[i]) + " }";
        }
        out += "] }";
        break;
      }
    }
  }
  out += first ? "}\n" : "\n}\n";
  return out;
}

bool Registry::write_file(const std::string& path) const {
  const bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return write_file_atomic(path, json ? to_json() : to_prometheus());
}

}  // namespace lrd::obs
