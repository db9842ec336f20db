// The observability layer's own contract tests: the exact percentile rule
// every bench shares, counter/gauge semantics under concurrency, the
// log-linear histogram's layout and its accuracy against that exact rule,
// the bounded trace ring, and the tracer's Chrome-JSON dump shape.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_ring.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/stats.hpp"

namespace spinn {
namespace {

// ---- sim::percentile (the sample-exact rule the benches use) ---------------

TEST(Percentile, EmptyInputIsZero) {
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(sim::percentile({}, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsItselfAtEveryP) {
  for (const double p : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(sim::percentile({42.0}, p), 42.0) << "p=" << p;
  }
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // R-7 rule: position p*(n-1) in the sorted samples.
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 0.5), 25.0);   // pos 1.5
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.0 / 3), 20.0);  // pos exactly 1
}

TEST(Percentile, UnsortedInputIsSortedFirst) {
  EXPECT_DOUBLE_EQ(sim::percentile({30.0, 10.0, 20.0}, 0.5), 20.0);
}

TEST(Percentile, OutOfRangePClamps) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sim::percentile(xs, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(sim::percentile(xs, 1.5), 3.0);
}

// ---- obs::Counter / Gauge -------------------------------------------------

TEST(ObsCounter, SumsAcrossConcurrentIncrements) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsCounter, IncByAddsExactly) {
  obs::Counter c;
  c.inc(7);
  c.inc(3);
  EXPECT_EQ(c.value(), 10u);
}

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

// ---- obs::Histogram: log-linear layout --------------------------------------

TEST(Histogram, BinsAndClamping) {
  using H = obs::Histogram;
  EXPECT_EQ(H::kBins, 624u);
  // 0..31 are exact (0..15, then 2^4's sub-buckets of width 1).
  for (std::int64_t v = 0; v < 32; ++v) {
    EXPECT_EQ(H::bin_of(v), static_cast<std::size_t>(v));
  }
  // 2^5 has sub-buckets of width 2: 32 and 33 share a bin, 34 starts one.
  EXPECT_EQ(H::bin_of(32), 32u);
  EXPECT_EQ(H::bin_of(33), 32u);
  EXPECT_EQ(H::bin_of(34), 33u);
  // Bins tile [0, 2^42) with no gap or overlap, each edge sample lands in
  // its own bin, and every width is at most 1/16 of its lower edge (the
  // 6.25% bound).
  for (std::size_t b = 0; b < H::kBins; ++b) {
    const std::int64_t lo = H::bin_lo(b);
    const std::int64_t w = H::bin_width(b);
    EXPECT_EQ(H::bin_of(lo), b);
    EXPECT_EQ(H::bin_of(lo + w - 1), b);
    if (b + 1 < H::kBins) {
      EXPECT_EQ(H::bin_lo(b + 1), lo + w);
    }
    if (b >= 16) {
      EXPECT_LE(w * 16, lo) << "bin " << b;
    }
  }
  EXPECT_EQ(H::bin_lo(H::kBins - 1) + H::bin_width(H::kBins - 1), H::kTop);
  // Out-of-range samples clamp to the end bins.
  EXPECT_EQ(H::bin_of(-5), 0u);
  EXPECT_EQ(H::bin_of(H::kTop), H::kBins - 1);
  EXPECT_EQ(H::bin_of(std::numeric_limits<std::int64_t>::max()),
            H::kBins - 1);
}

TEST(ObsHistogram, EmptyPercentileIsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(ObsHistogram, SingleSampleStaysInItsBin) {
  obs::Histogram h;
  h.observe(345);  // bin [336, 352): width 16 in [256, 512)
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 345u);
  EXPECT_EQ(h.mean(), 345.0);
  for (const double p : {0.01, 0.5, 0.99}) {
    EXPECT_GE(h.percentile(p), 336) << "p=" << p;
    EXPECT_LT(h.percentile(p), 352) << "p=" << p;
  }
}

TEST(ObsHistogram, ClampsOutOfRangeObservations) {
  obs::Histogram h;
  h.observe(-50);
  h.observe(obs::Histogram::kTop + 12345);  // above 2^42 ns
  EXPECT_EQ(h.count(), 2u);
  // The negative sample contributes 0 to the sum (sum is of clamped-at-0
  // magnitudes), the high one its real value.
  EXPECT_EQ(h.sum(), static_cast<std::uint64_t>(obs::Histogram::kTop) + 12345);
  EXPECT_EQ(h.percentile(0.25), 0);  // the negative one sits in bin 0
  EXPECT_EQ(h.percentile(1.0), obs::Histogram::kTop);  // saturates at top
}

TEST(ObsHistogram, PercentilesOrdered) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  EXPECT_LE(h.percentile(0.50), h.percentile(0.95));
  EXPECT_LE(h.percentile(0.95), h.percentile(0.99));
  EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 5000.0, 5000.0 / 16);
}

TEST(ObsHistogram, SummaryMatchesIndividualPercentiles) {
  // summary() is the scrape path (one snapshot for all three
  // percentiles); with no concurrent writers it must agree exactly with
  // three percentile() calls.
  obs::Histogram h;
  EXPECT_EQ(h.summary().count, 0u);
  EXPECT_EQ(h.summary().p99, 0);
  for (int i = 0; i < 1000; ++i) h.observe(i * 10);
  const obs::Histogram::Summary s = h.summary();
  EXPECT_EQ(s.count, h.count());
  EXPECT_EQ(s.p50, h.percentile(0.50));
  EXPECT_EQ(s.p95, h.percentile(0.95));
  EXPECT_EQ(s.p99, h.percentile(0.99));
}

// ---- obs::Histogram accuracy against the exact sample percentile ------------
//
// The same samples go to the histogram and to sim::percentile; p50/p95/p99
// must agree within the layout's 1/16 relative bound at every magnitude.

void expect_within_bound(const std::vector<std::int64_t>& xs) {
  obs::Histogram h;
  std::vector<double> exact;
  exact.reserve(xs.size());
  for (const std::int64_t x : xs) {
    h.observe(x);
    exact.push_back(static_cast<double>(x));
  }
  for (const double p : {0.50, 0.95, 0.99}) {
    const double want = sim::percentile(exact, p);
    const auto got = static_cast<double>(h.percentile(p));
    EXPECT_LE(std::abs(got - want), want / 16) << "p=" << p << " exact "
                                               << want << " binned " << got;
  }
}

TEST(ObsHistogram, PointMassMatchesExactPercentile) {
  // A point mass is the layout's worst case: interpolation spreads the
  // samples across the bin while the exact answer sits at one spot.  Sweep
  // every bin's lower edge (farthest from where p99 lands), plus 75 us — a
  // typical chain lifecycle, which a histogram whose first bin is 5 ms wide
  // reports as 2.5 ms.
  std::vector<std::int64_t> values = {75'000, 1'234'567'891};
  for (std::size_t b = 0; b < obs::Histogram::kBins; ++b) {
    values.push_back(obs::Histogram::bin_lo(b));
  }
  for (const std::int64_t v : values) {
    SCOPED_TRACE(v);
    expect_within_bound(std::vector<std::int64_t>(100, v));
  }
}

TEST(ObsHistogram, WideUniformMatchesExactPercentile) {
  // Six decades: 10 ns .. 10 ms.
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<std::int64_t> dist(10, 10'000'000);
  std::vector<std::int64_t> xs(100'000);
  for (auto& x : xs) x = dist(rng);
  expect_within_bound(xs);
}

TEST(ObsHistogram, HeavyTailMatchesExactPercentile) {
  // Log-normal around 100 us with sigma 3 (in ln units): samples run from
  // single-digit ns to seconds, p99 ~1000x the median.
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(std::log(1e5), 3.0);
  std::vector<std::int64_t> xs(100'000);
  for (auto& x : xs) x = static_cast<std::int64_t>(dist(rng));
  expect_within_bound(xs);
}

TEST(Histogram, PercentileMonotone) {
  std::mt19937_64 rng(3);
  std::lognormal_distribution<double> dist(std::log(1e4), 2.0);
  obs::Histogram h;
  for (int i = 0; i < 10'000; ++i) {
    h.observe(static_cast<std::int64_t>(dist(rng)));
  }
  std::int64_t prev = h.percentile(0.0);
  for (int i = 1; i <= 100; ++i) {
    const std::int64_t cur = h.percentile(i / 100.0);
    EXPECT_LE(prev, cur) << "p=" << i / 100.0;
    prev = cur;
  }
}

// ---- obs::Registry ---------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStableReferences) {
  auto& reg = obs::Registry::global();
  obs::Counter& a = reg.counter("test.registry.counter");
  obs::Counter& b = reg.counter("test.registry.counter");
  EXPECT_EQ(&a, &b);
  obs::Histogram& ha = reg.histogram("test.registry.hist");
  obs::Histogram& hb = reg.histogram("test.registry.hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(ObsRegistry, RowsSortedAndHistogramsExpand) {
  auto& reg = obs::Registry::global();
  reg.counter("test.rows.b").inc(2);
  reg.counter("test.rows.a").inc(1);
  reg.gauge("test.rows.g").set(5);
  reg.histogram("test.rows.h").observe(50);
  const auto rows = reg.rows();
  ASSERT_FALSE(rows.empty());
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "rows must be sorted";
  }
  const auto find = [&](const std::string& name) -> const std::uint64_t* {
    for (const auto& [n, v] : rows) {
      if (n == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(find("test.rows.a"), nullptr);
  EXPECT_EQ(*find("test.rows.a"), 1u);
  EXPECT_EQ(*find("test.rows.b"), 2u);
  EXPECT_EQ(*find("test.rows.g"), 5u);
  ASSERT_NE(find("test.rows.h.count"), nullptr);
  EXPECT_EQ(*find("test.rows.h.count"), 1u);
  EXPECT_NE(find("test.rows.h.p50"), nullptr);
  EXPECT_NE(find("test.rows.h.p95"), nullptr);
  EXPECT_NE(find("test.rows.h.p99"), nullptr);
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, BoundedOverwriteKeepsNewest) {
  TraceRing<2> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const std::uint64_t rec[2] = {i, i * 10};
    ring.push(rec);
  }
  EXPECT_EQ(ring.pushed(), 20u);
  const auto out = ring.read();
  ASSERT_EQ(out.size(), 8u);  // only the last capacity survive
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i][0], 12 + i);  // oldest surviving is push #12
    EXPECT_EQ(out[i][1], (12 + i) * 10);
  }
}

TEST(TraceRing, ConcurrentReaderNeverSeesTornRecords) {
  // Single producer pushes (i, ~i) pairs; a reader snapshots continuously.
  // Every record read must be internally consistent.
  TraceRing<2> ring(64);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const auto& rec : ring.read()) {
        ASSERT_EQ(rec[1], ~rec[0]) << "torn record";
      }
    }
  });
  for (std::uint64_t i = 0; i < 200000; ++i) {
    const std::uint64_t rec[2] = {i, ~i};
    ring.push(rec);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
}

// ---- Tracer ----------------------------------------------------------------

TEST(Tracer, RecordsAndDumpsChromeJson) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.complete("testcat", "span.one", 1000, 2500, "arg", 7);
  tr.instant("testcat", "point.one", 5005, nullptr, 0,
             /*virtual_clock=*/true);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "span.one");
  EXPECT_EQ(events[0].ts_ns, 1000);
  EXPECT_EQ(events[0].dur_ns, 2500);
  EXPECT_FALSE(events[0].instant);
  EXPECT_FALSE(events[0].virtual_clock);
  EXPECT_STREQ(events[0].arg_name, "arg");
  EXPECT_EQ(events[0].arg, 7u);
  EXPECT_TRUE(events[1].instant);
  EXPECT_TRUE(events[1].virtual_clock);

  const std::string json = tr.dump_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span.one\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  // ns precision survives as zero-padded µs fractions: 1000ns = 1.000µs,
  // 5005ns = 5.005µs.
  EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5.005"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":2.500"), std::string::npos);
  // Virtual-time events live in pid 1, wall in pid 0.
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"arg\":7}"), std::string::npos);
}

TEST(Tracer, DisabledRecordsNothing) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(false);
  tr.complete("testcat", "dropped", 0, 1);
  EXPECT_TRUE(tr.snapshot().empty());
  tr.set_enabled(true);
  tr.complete("testcat", "kept", 0, 1);
  EXPECT_EQ(tr.snapshot().size(), 1u);
}

TEST(Tracer, ClearDropsEvents) {
  auto& tr = obs::Tracer::global();
  tr.set_enabled(true);
  tr.complete("testcat", "x", 0, 1);
  EXPECT_FALSE(tr.snapshot().empty());
  tr.clear();
  EXPECT_TRUE(tr.snapshot().empty());
}

TEST(Tracer, SnapshotSortedByTimestamp) {
  auto& tr = obs::Tracer::global();
  tr.clear();
  tr.set_enabled(true);
  tr.instant("testcat", "late", 300);
  tr.instant("testcat", "early", 100);
  tr.instant("testcat", "mid", 200);
  const auto events = tr.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "mid");
  EXPECT_STREQ(events[2].name, "late");
}

}  // namespace
}  // namespace spinn
