// Process-wide metrics registry: counters, gauges and log-linear
// histograms, exportable as Prometheus text format and as JSON.
//
// Hot-path contract: recording a sample never takes a lock. Counters and
// histograms are sharded — each thread hashes to one of a fixed set of
// cache-line-aligned shards and does a relaxed atomic add there — so
// increments from the sweep executor's workers do not bounce one
// cache line around. Reads (export time) sum the shards; they are
// monotone but not a consistent snapshot, which is exactly the
// Prometheus scrape model.
//
// Histograms are log-linear (HdrHistogram-style): values are bucketed by
// binary exponent, each octave split into kSubBuckets linear
// sub-buckets, giving a bounded relative quantile error of
// 2^(1/kSubBuckets) - 1 (~9% at 8 sub-buckets) over ~24 decades.
// Merging histograms is exact bucket-count addition, hence associative —
// the property the thread-shard tests pin down.
//
// Compile-time no-op path: building with -DLRD_OBS_DISABLED (CMake
// option LRD_DISABLE_OBS) turns every record operation into an empty
// inline function, so an uninstrumented build pays literally nothing.
// `kObsEnabled` lets callers (and tests) check which mode they are in.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lrd::obs {

#if defined(LRD_OBS_DISABLED)
inline constexpr bool kObsEnabled = false;
#else
inline constexpr bool kObsEnabled = true;
#endif

/// Stable per-thread shard index in [0, 2^16); callers mask to their
/// shard count. Derived from a thread-local counter, not the thread id
/// hash, so threads spawned together land on distinct shards.
std::size_t thread_shard() noexcept;

/// Monotone counter. Sharded relaxed atomics; value() sums the shards.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void inc(std::uint64_t n = 1) noexcept {
    if constexpr (!kObsEnabled) { (void)n; return; }
    shards_[thread_shard() & (kShards - 1)].v.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (workers alive, queue depth, ...).
class Gauge {
 public:
  void set(double v) noexcept {
    if constexpr (!kObsEnabled) { (void)v; return; }
    v_.store(v, std::memory_order_relaxed);
  }

  void add(double delta) noexcept {
    if constexpr (!kObsEnabled) { (void)delta; return; }
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }

  double value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Log-linear histogram of positive values. observe() is lock-free
/// (sharded relaxed adds); zero and negative values land in the
/// underflow bucket, values beyond the tracked range in the overflow
/// bucket, so no sample is ever silently dropped.
class Histogram {
 public:
  /// Octaves [kMinExp, kMaxExp) cover ~[6e-13, 7e+11); with 8 linear
  /// sub-buckets per octave the relative bucket width is 2^(1/8) ~ 9%.
  static constexpr int kMinExp = -40;
  static constexpr int kMaxExp = 40;
  static constexpr std::size_t kSubBuckets = 8;
  /// Bucket 0 is underflow (v <= lowest edge, incl. v <= 0); the last
  /// bucket is overflow.
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;
  static constexpr std::size_t kShards = 8;

  Histogram();

  void observe(double v) noexcept {
    if constexpr (!kObsEnabled) { (void)v; return; }
    observe_impl(v);
  }

  std::uint64_t count() const noexcept;
  double sum() const noexcept;

  /// Inclusive lower / exclusive upper value edge of bucket `i`.
  static double bucket_lower(std::size_t i) noexcept;
  static double bucket_upper(std::size_t i) noexcept;
  /// Bucket index a value lands in (the inverse of the edges above).
  static std::size_t bucket_index(double v) noexcept;

  /// Summed-across-shards snapshot of all bucket counts.
  std::vector<std::uint64_t> snapshot() const;

  /// q-quantile estimate (q in [0, 1]) by linear interpolation within
  /// the containing bucket; NaN when the histogram is empty. The error
  /// is bounded by the bucket's relative width (~9%).
  double quantile(double q) const;

 private:
  void observe_impl(double v) noexcept;

  struct alignas(64) Shard {
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets;
    std::atomic<double> sum{0.0};
  };
  Shard shards_[kShards];
};

/// Name -> metric map with stable addresses: a `Counter&` handed out
/// once stays valid for the registry's lifetime, so call sites cache the
/// reference in a static local and pay one mutex acquisition ever.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation point uses.
  static Registry& global();

  /// Finds or creates; `help` is kept from the first registration.
  Counter& counter(std::string_view name, std::string_view help);
  Gauge& gauge(std::string_view name, std::string_view help);
  Histogram& histogram(std::string_view name, std::string_view help);

  /// Prometheus text exposition format (HELP/TYPE headers; histograms
  /// with cumulative `le` buckets, `_sum` and `_count` series).
  std::string to_prometheus() const;
  /// The same snapshot as one JSON object keyed by metric name.
  std::string to_json() const;

  /// Writes the snapshot to `path` atomically (temp file + rename): JSON
  /// when the path ends in ".json", Prometheus text otherwise. False on
  /// I/O failure.
  bool write_file(const std::string& path) const;

  std::size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    std::string help;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  Entry& find_or_create(std::string_view name, std::string_view help, Kind kind);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // insertion order, stable addresses
};

}  // namespace lrd::obs
