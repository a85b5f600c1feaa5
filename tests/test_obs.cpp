// The observability subsystem: metric registry semantics, drift-free
// integer percentiles, trace-span nesting and ring bounds, Prometheus
// rendering, the FTSP_OBS kill switch, concurrent hammering (TSan
// tier), and the telemetry-off determinism contract.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "compile/artifact.hpp"
#include "core/serialize.hpp"
#include "core/synth_cache.hpp"
#include "obs/expose.hpp"
#include "obs/trace.hpp"
#include "qec/code_library.hpp"

namespace ftsp::obs {
namespace {

/// Forces telemetry on (or off) for one test body and restores the
/// environment-driven default on the way out, so test order never
/// leaks an override into another suite.
class ObsOverride {
 public:
  explicit ObsOverride(bool on) { set_enabled(on); }
  ~ObsOverride() { clear_enabled_override(); }
};

TEST(ObsRegistry, CounterGaugeBasics) {
  const ObsOverride on(true);
  auto& registry = Registry::instance();
  Counter& counter = registry.counter("test.obs.counter");
  Gauge& gauge = registry.gauge("test.obs.gauge");
  counter.reset();
  gauge.reset();

  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  gauge.set(-7);
  EXPECT_EQ(gauge.value(), -7);

  // Same name -> same object: registration is idempotent and the
  // reference is stable.
  EXPECT_EQ(&registry.counter("test.obs.counter"), &counter);
  EXPECT_EQ(&registry.gauge("test.obs.gauge"), &gauge);

  counter.reset();
  gauge.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(gauge.value(), 0);
}

TEST(ObsRegistry, SwitchOffFreezesTimingsWhileCountersRecord) {
  const ObsOverride off(false);
  auto& registry = Registry::instance();
  Counter& counter = registry.counter("test.obs.frozen.counter");
  Gauge& gauge = registry.gauge("test.obs.frozen.gauge");
  Histogram& histogram = registry.histogram("test.obs.frozen.hist_us");
  counter.reset();
  gauge.reset();
  histogram.reset();
  TraceRing::instance().clear();

  counter.add(5);
  gauge.set(5);
  histogram.record(5);
  { const ScopedTimer timer(histogram); }
  { const TraceSpan span("test.obs.frozen.span"); }

  // Counters and gauges are the one count of each event: they record
  // whatever the switch says.
  EXPECT_EQ(counter.value(), 5u);
  EXPECT_EQ(gauge.value(), 5);
  // Histograms, timers and spans are what the switch turns off.
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.sum_us(), 0u);
  EXPECT_EQ(histogram.percentile_us(0.99), 0u);
  EXPECT_EQ(TraceRing::instance().size(), 0u);

  // Reads and renders work either way.
  EXPECT_NE(render_prometheus().find("test_obs_frozen_counter 5"),
            std::string::npos);
}

TEST(ObsHistogram, BucketIndexAndUpperBoundsArePowersOfTwo) {
  // Bucket i holds values <= 2^i µs; the index is exact at every
  // boundary and one past it.
  EXPECT_EQ(Histogram::bucket_index(0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1), 0u);
  EXPECT_EQ(Histogram::bucket_index(2), 1u);
  EXPECT_EQ(Histogram::bucket_index(3), 2u);
  EXPECT_EQ(Histogram::bucket_index(4), 2u);
  EXPECT_EQ(Histogram::bucket_index(5), 3u);
  for (std::size_t i = 0; i + 1 < Histogram::kBuckets; ++i) {
    const std::uint64_t upper = Histogram::bucket_upper_us(i);
    EXPECT_EQ(upper, std::uint64_t{1} << i);
    EXPECT_EQ(Histogram::bucket_index(upper), i);
    EXPECT_EQ(Histogram::bucket_index(upper + 1), i + 1);
  }
  EXPECT_EQ(Histogram::bucket_upper_us(Histogram::kBuckets - 1),
            std::numeric_limits<std::uint64_t>::max());
  // Anything past the largest finite bucket lands in overflow.
  EXPECT_EQ(Histogram::bucket_index(std::uint64_t{1} << 40),
            Histogram::kBuckets - 1);
}

TEST(ObsHistogram, PercentilesAreExactCumulativeWalks) {
  const ObsOverride on(true);
  Histogram histogram;
  // 90 fast observations (bucket upper bound 1 µs) and 10 slow ones
  // (bucket upper bound 1024 µs): ranks 1..90 resolve to 1, 91..100
  // to 1024.
  for (int i = 0; i < 90; ++i) {
    histogram.record(1);
  }
  for (int i = 0; i < 10; ++i) {
    histogram.record(1000);
  }
  EXPECT_EQ(histogram.count(), 100u);
  EXPECT_EQ(histogram.sum_us(), 90u + 10u * 1000u);
  EXPECT_EQ(histogram.percentile_us(0.50), 1u);
  EXPECT_EQ(histogram.percentile_us(0.90), 1u);
  EXPECT_EQ(histogram.percentile_us(0.91), 1024u);
  EXPECT_EQ(histogram.percentile_us(0.99), 1024u);
  EXPECT_EQ(histogram.percentile_us(1.0), 1024u);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_EQ(histogram.percentile_us(-1.0), 1u);
  EXPECT_EQ(histogram.percentile_us(2.0), 1024u);
}

TEST(ObsHistogram, PercentileIsMonotoneInQ) {
  const ObsOverride on(true);
  Histogram histogram;
  // A spread of magnitudes; any fixed snapshot must give a
  // non-decreasing percentile curve (the stats v2 p50 <= p99 gate).
  const std::uint64_t values[] = {0, 1, 3, 7, 12, 90, 333, 5000, 70000, 1u << 22};
  for (const auto v : values) {
    histogram.record(v);
  }
  std::uint64_t previous = 0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const std::uint64_t p = histogram.percentile_us(q);
    EXPECT_GE(p, previous) << "q=" << q;
    previous = p;
  }
  EXPECT_LE(histogram.percentile_us(0.50), histogram.percentile_us(0.99));
}

TEST(ObsRegistry, LabeledBuildsOneSeriesName) {
  EXPECT_EQ(labeled("serve.request.duration_us", "op", "sample"),
            "serve.request.duration_us{op=\"sample\"}");
  // Distinct labels are distinct series of the same family.
  auto& registry = Registry::instance();
  Counter& a = registry.counter(labeled("test.obs.labeled", "op", "a"));
  Counter& b = registry.counter(labeled("test.obs.labeled", "op", "b"));
  EXPECT_NE(&a, &b);
}

TEST(ObsRegistry, SnapshotIsSortedAndComplete) {
  const ObsOverride on(true);
  auto& registry = Registry::instance();
  registry.counter("test.obs.snap.a").reset();
  registry.counter("test.obs.snap.b").add(3);
  registry.histogram("test.obs.snap.hist_us").record(9);

  const auto snap = registry.snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
  bool found_counter = false;
  for (const auto& row : snap.counters) {
    if (row.name == "test.obs.snap.b") {
      found_counter = true;
      EXPECT_GE(row.value, 3u);
    }
  }
  EXPECT_TRUE(found_counter);
  bool found_histogram = false;
  for (const auto& row : snap.histograms) {
    if (row.name == "test.obs.snap.hist_us") {
      found_histogram = true;
      EXPECT_GE(row.count, 1u);
      EXPECT_GE(row.sum_us, 9u);
    }
  }
  EXPECT_TRUE(found_histogram);
}

TEST(ObsTrace, SpansNestAndLandInRing) {
  const ObsOverride on(true);
  auto& ring = TraceRing::instance();
  ring.clear();

  std::uint64_t outer_id = 0;
  {
    TraceSpan outer("test.trace.outer");
    ASSERT_TRUE(outer.active());
    outer_id = outer.id();
    { const TraceSpan inner("test.trace.inner"); }
  }

  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Inner finishes first, so it lands first (oldest-first order).
  EXPECT_EQ(spans[0].name, "test.trace.inner");
  EXPECT_EQ(spans[0].parent_id, outer_id);
  EXPECT_EQ(spans[1].name, "test.trace.outer");
  EXPECT_EQ(spans[1].parent_id, 0u) << "outer span must be a root";
  EXPECT_GE(spans[1].duration_us, spans[0].duration_us);

  const std::string jsonl = ring.export_jsonl();
  EXPECT_NE(jsonl.find("\"name\":\"test.trace.inner\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"test.trace.outer\""), std::string::npos);
  // One JSON object per line.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
}

TEST(ObsTrace, RingEvictsOldestBeyondCapacity) {
  const ObsOverride on(true);
  auto& ring = TraceRing::instance();
  ring.clear();
  ring.set_capacity(8);

  const std::uint64_t before = ring.total_recorded();
  for (int i = 0; i < 20; ++i) {
    const TraceSpan span("test.trace.ring." + std::to_string(i));
  }
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.total_recorded() - before, 20u);

  const auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 8u);
  // The survivors are the 8 newest, oldest first.
  EXPECT_EQ(spans.front().name, "test.trace.ring.12");
  EXPECT_EQ(spans.back().name, "test.trace.ring.19");

  ring.set_capacity(TraceRing::kDefaultCapacity);
  ring.clear();
}

TEST(ObsExpose, PrometheusRenderingIsWellFormed) {
  const ObsOverride on(true);
  auto& registry = Registry::instance();
  registry.counter(labeled("test.expose.req", "op", "a")).reset();
  registry.counter(labeled("test.expose.req", "op", "b")).reset();
  registry.counter(labeled("test.expose.req", "op", "a")).add(2);
  registry.counter(labeled("test.expose.req", "op", "b")).add(5);
  Histogram& histogram = registry.histogram("test.expose.dur_us");
  histogram.reset();
  histogram.record(3);
  histogram.record(1000);

  const std::string text = render_prometheus();

  // Dots sanitized to underscores; labels survive.
  EXPECT_NE(text.find("test_expose_req{op=\"a\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("test_expose_req{op=\"b\"} 5\n"), std::string::npos);
  // Exactly one TYPE line per family even with multiple series.
  std::size_t type_lines = 0;
  for (std::size_t at = text.find("# TYPE test_expose_req counter");
       at != std::string::npos;
       at = text.find("# TYPE test_expose_req counter", at + 1)) {
    ++type_lines;
  }
  EXPECT_EQ(type_lines, 1u);

  // Histogram: cumulative buckets ending in +Inf == _count, plus _sum.
  EXPECT_NE(text.find("# TYPE test_expose_dur_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_dur_us_bucket{le=\"4\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_dur_us_bucket{le=\"1024\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_dur_us_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_expose_dur_us_sum 1003\n"), std::string::npos);
  EXPECT_NE(text.find("test_expose_dur_us_count 2\n"), std::string::npos);

  const std::string http = render_http_metrics_response();
  EXPECT_EQ(http.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(http.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const auto body_at = http.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = http.substr(body_at + 4);
  EXPECT_NE(http.find("Content-Length: " + std::to_string(body.size())),
            std::string::npos);
}

// TSan tier (CI runs this binary under -fsanitize=thread): writers
// hammer counters, histograms and the span ring while a reader loops
// full renders and snapshots. Correctness bar: no data race, no torn
// registry, and every recorded increment lands.
TEST(ObsConcurrency, HammerRegistryAndRingUnderConcurrentScrape) {
  const ObsOverride on(true);
  auto& registry = Registry::instance();
  auto& ring = TraceRing::instance();
  ring.clear();
  Counter& counter = registry.counter("test.obs.hammer.count");
  Histogram& histogram = registry.histogram("test.obs.hammer.dur_us");
  counter.reset();
  histogram.reset();

  constexpr int kWriters = 4;
  constexpr int kIterations = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string text = render_prometheus();
      EXPECT_FALSE(text.empty());
      (void)registry.snapshot();
      (void)ring.export_jsonl();
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kIterations; ++i) {
        counter.add(1);
        histogram.record(static_cast<std::uint64_t>(i % 128));
        const TraceSpan span("test.obs.hammer.span");
        // New-series registration racing established-series updates.
        registry
            .counter(labeled("test.obs.hammer.lane", "lane",
                             std::to_string((w * kIterations + i) % 17)))
            .add(1);
      }
    });
  }
  for (auto& writer : writers) {
    writer.join();
  }
  stop.store(true);
  reader.join();

  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kWriters) * kIterations);
  EXPECT_EQ(histogram.count(),
            static_cast<std::uint64_t>(kWriters) * kIterations);
  EXPECT_LE(ring.size(), ring.capacity());
  ring.clear();
}

// The observation-only contract: synthesizing with telemetry off and
// with telemetry on yields byte-identical protocols and store keys.
// The synth cache is cleared between runs so both actually execute the
// full SAT pipeline.
TEST(ObsDeterminism, TelemetryOffAndOnCompileIdenticalArtifacts) {
  const compile::ProtocolCompiler compiler;

  set_enabled(false);
  core::SynthCache::instance().clear();
  const auto off_artifact = compiler.compile(qec::steane());
  const std::string off_bytes = core::save_protocol(off_artifact.protocol);

  set_enabled(true);
  core::SynthCache::instance().clear();
  const auto on_artifact = compiler.compile(qec::steane());
  const std::string on_bytes = core::save_protocol(on_artifact.protocol);
  clear_enabled_override();

  EXPECT_EQ(off_artifact.key, on_artifact.key)
      << "telemetry must not perturb the artifact store key";
  EXPECT_EQ(off_bytes, on_bytes)
      << "telemetry must not perturb the synthesized protocol";
}

}  // namespace
}  // namespace ftsp::obs
