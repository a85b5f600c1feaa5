#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ftsp::obs {

/// Process-wide switch for the timing half of telemetry. Defaults to
/// on; the environment variable FTSP_OBS=off|0|false stops histogram
/// recording, trace spans and the clock reads that feed them.
/// `set_enabled` overrides the environment for tests and benches.
///
/// Counters and gauges ignore the switch and always record: they are
/// the one count of each event, and the `stats` and `metrics` ops
/// render them. Apart from those two documented readers, telemetry is
/// observation-only: no recorded value feeds back into synthesis,
/// sampling, caching or response rendering, so artifacts, cache keys
/// and wire bytes are identical whether the switch is on or off (gated
/// by tests/test_obs.cpp and bench/bench_obs_overhead.cpp).
bool enabled();
void set_enabled(bool on);
/// Drops any `set_enabled` override, returning to the environment.
void clear_enabled_override();

/// Monotonically increasing event count (requests served, conflicts
/// derived, bytes logged). Always records, whatever `enabled()` says.
/// Lock-free; relaxed ordering — telemetry tolerates momentarily torn
/// cross-counter views.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written level (store generation, portfolio winner index).
/// Always records, like Counter.
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram over microseconds: bucket i counts
/// values <= 2^i µs (i = 0..26, so 1 µs .. ~67 s), with a final
/// overflow bucket. All state is integer bucket counts plus an integer
/// sum, so percentiles derive exactly by a cumulative walk — no
/// floating-point accumulation, no drift, and a p50 can never exceed a
/// p99 computed from the same snapshot. `record` is a no-op while
/// `enabled()` is false.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 28;

  void record(std::uint64_t value_us) {
    if (!enabled()) {
      return;
    }
    counts_[bucket_index(value_us)].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(value_us, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum_us() const {
    return sum_us_.load(std::memory_order_relaxed);
  }

  /// Exact-by-construction percentile: the upper bound of the bucket
  /// holding the rank-ceil(q * count) observation (0 when empty).
  /// Monotone in q for any fixed snapshot.
  std::uint64_t percentile_us(double q) const;

  /// Inclusive upper bound of bucket i in µs; the overflow bucket
  /// reports UINT64_MAX.
  static std::uint64_t bucket_upper_us(std::size_t i);
  static std::size_t bucket_index(std::uint64_t value_us);

  std::array<std::uint64_t, kBuckets> bucket_counts() const;

  void reset() {
    for (auto& bucket : counts_) {
      bucket.store(0, std::memory_order_relaxed);
    }
    sum_us_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// RAII wall-clock timer: records the enclosing scope's duration into a
/// histogram in microseconds. Reads the clock only when `enabled()` was
/// true at construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(histogram), timing_(enabled()) {
    if (timing_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (!timing_) {
      return;
    }
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    histogram_.record(us > 0 ? static_cast<std::uint64_t>(us) : 0);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& histogram_;
  const bool timing_;
  std::chrono::steady_clock::time_point start_{};
};

/// The process-wide metric registry. Names follow the
/// `subsystem.verb.unit` convention (e.g. `sat.conflict.count`,
/// `serve.request.duration_us`) with an optional single label rendered
/// Prometheus-style (`serve.request.duration_us{op="sample"}`, built
/// with `labeled()`). Like the v2 error-code slugs, the name registry
/// is append-only: a published name never changes meaning or units —
/// see src/obs/README.md for the full table.
///
/// Registration (first call for a name) takes a mutex; the returned
/// reference is stable for the process lifetime, so hot paths register
/// once (function-local static) and increment lock-free thereafter.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  struct CounterRow {
    std::string name;
    std::uint64_t value;
  };
  struct GaugeRow {
    std::string name;
    std::int64_t value;
  };
  struct HistogramRow {
    std::string name;
    std::array<std::uint64_t, Histogram::kBuckets> buckets;
    std::uint64_t count;
    std::uint64_t sum_us;
  };
  struct Snapshot {
    std::vector<CounterRow> counters;
    std::vector<GaugeRow> gauges;
    std::vector<HistogramRow> histograms;
  };

  /// Point-in-time copy of every registered metric, sorted by name.
  Snapshot snapshot() const;

  /// Zeroes every registered metric (names stay registered). Tests and
  /// benches only — a serving process never resets its telemetry.
  void reset_for_tests();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// `name{key="value"}` — one labeled series of a metric family.
std::string labeled(const std::string& name, const std::string& key,
                    const std::string& value);

}  // namespace ftsp::obs
