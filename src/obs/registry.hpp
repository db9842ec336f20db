// obs::Registry — the server's one metrics namespace.
//
// A million-core machine is only operable if every layer reports into one
// place (ISSUE 9 / docs/OBSERVABILITY.md).  The registry holds three metric
// kinds, all built for hot-path increments and scrape-time aggregation:
//
//  * Counter   — monotone u64, sharded across cache-line-padded atomic
//                slots so concurrent reactors/workers never bounce a line;
//                inc() is one relaxed fetch_add, value() sums at scrape.
//  * Gauge     — last-write-wins i64 (queue depth, residency).
//  * Histogram — log-linear atomic bin counts (exact 0..15, then 16
//                sub-buckets per power of two up to 2^42; <=6.25% relative
//                error), exposing count/p50/p95/p99 at scrape time.
//
// Lock discipline: metric *registration* (find-or-create by name) takes the
// registry mutex and belongs in constructors/setup paths, which then hold
// plain references for the object's life (entries are never removed, so
// references never dangle).  The increment paths — inc/set/observe — take
// no lock and allocate nothing; tools/lint_invariants.py's `obs-hot-path`
// rule enforces that on every `// obs:hot` body in this file.
//
// The wire surface is the `metrics` verb (net/protocol.cpp): the derived
// NetStats/ServerStats fields in pinned order, then this registry's rows()
// sorted by name.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"

namespace spinn::obs {

namespace detail {
/// The calling thread's counter shard.  Assigned round-robin on first use
/// (one relaxed fetch_add per thread, ever): no lock, no allocation.
std::size_t this_thread_shard() noexcept;
}  // namespace detail

/// Monotone counter, sharded to keep concurrent increments off each
/// other's cache lines.
class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  // obs:hot — metric-increment path: no locks, no allocation.
  void inc(std::uint64_t by = 1) noexcept {
    shards_[detail::this_thread_shard()].v.fetch_add(
        by, std::memory_order_relaxed);
  }

  /// Scrape-time sum over the shards.  Each shard is individually monotone
  /// under relaxed loads, so successive scrapes never go backwards.
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Slot& s : shards_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> v{0};
  };
  Slot shards_[kShards];
};

/// Last-write-wins level (queue depth, occupancy).
class Gauge {
 public:
  // obs:hot — metric-update path: no locks, no allocation.
  void set(std::int64_t v) noexcept {
    v_.store(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear (HDR-style) histogram of integer samples — latencies in ns
/// everywhere this repo uses it.  Values 0..15 get exact bins; above that
/// each power-of-two range [2^e, 2^(e+1)), e = 4..41, is split into 16
/// equal sub-buckets, 624 bins in all.  A bin's width is at most 1/16 of
/// its lower edge, so a percentile is within 6.25% of the exact sample
/// percentile at any magnitude from 1 ns to ~73 min, with no per-site
/// range to choose.  Negative samples clamp to bin 0 and samples at or
/// above 2^42 to the last bin: nothing is silently dropped.
class Histogram {
 public:
  static constexpr int kSubBits = 4;   ///< 16 sub-buckets per power of two
  static constexpr int kTopBits = 42;  ///< top edge 2^42 ns (~73 min)
  static constexpr std::int64_t kTop = std::int64_t{1} << kTopBits;
  static constexpr std::size_t kBins =
      static_cast<std::size_t>(kTopBits - kSubBits + 1) << kSubBits;

  /// Bin of a sample: a count-leading-zeros and a shift, no divide.
  static constexpr std::size_t bin_of(std::int64_t x) noexcept {
    const auto v = static_cast<std::uint64_t>(std::clamp(x, std::int64_t{0},
                                                         kTop - 1));
    const int shift =
        std::max(static_cast<int>(std::bit_width(v)) - (kSubBits + 1), 0);
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(v >> shift);
  }
  /// Inclusive lower edge of bin `b`; the bin holds bin_width(b) values.
  static constexpr std::int64_t bin_lo(std::size_t b) noexcept {
    const int shift = bin_shift(b);
    return static_cast<std::int64_t>(
               b - (static_cast<std::size_t>(shift) << kSubBits))
           << shift;
  }
  static constexpr std::int64_t bin_width(std::size_t b) noexcept {
    return std::int64_t{1} << bin_shift(b);
  }

  // obs:hot — metric-increment path: no locks, no allocation.
  void observe(std::int64_t x) noexcept {
    counts_[bin_of(x)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(static_cast<std::uint64_t>(x < 0 ? 0 : x),
                   std::memory_order_relaxed);
  }

  /// Samples observed so far: the sum over the bins.
  std::uint64_t count() const noexcept;
  /// Exact sum of the observed samples (negatives count as 0), so
  /// sum() / count() is the exact mean.
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Exact mean, sum() / count(); 0 when empty.  The two loads are not
  /// one snapshot, so under concurrent observers this is approximate.
  double mean() const noexcept {
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
  }

  /// Bin-interpolated percentile (p in [0, 1]) of everything observed so
  /// far, truncated to an integer; 0 when empty.
  std::int64_t percentile(double p) const noexcept;

  /// A copy of the bin counts.  The difference of two copies holds just
  /// the samples observed between them, whatever came before.
  using Bins = std::array<std::uint64_t, kBins>;
  Bins bins() const noexcept;
  /// The same percentile over a bin copy (or a difference of copies).
  static std::int64_t percentile(const Bins& bins, double p) noexcept;

  /// One scrape row set — count plus p50/p95/p99 — from a *single* bin
  /// snapshot, so the four answers agree about which events they saw.
  /// The snapshot lives on the stack: a scrape allocates nothing here.
  struct Summary {
    std::uint64_t count = 0;
    std::int64_t p50 = 0;
    std::int64_t p95 = 0;
    std::int64_t p99 = 0;
  };
  Summary summary() const noexcept;

 private:
  static constexpr int bin_shift(std::size_t b) noexcept {
    return std::max(static_cast<int>(b >> kSubBits) - 1, 0);
  }

  std::array<std::atomic<std::uint64_t>, kBins> counts_{};
  std::atomic<std::uint64_t> sum_{0};
};
static_assert(Histogram::kBins == 624 &&
              Histogram::bin_of(Histogram::kTop - 1) == Histogram::kBins - 1);

class Registry {
 public:
  /// The process-wide registry every layer reports into.  Never destroyed
  /// (metrics may be touched from thread_local destructors at exit).
  static Registry& global();

  /// Find-or-create by name.  Takes the registry lock — setup paths only;
  /// hold the returned reference (stable for the registry's life) for
  /// hot-path use.
  Counter& counter(const std::string& name) SPINN_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) SPINN_EXCLUDES(mu_);
  Histogram& histogram(const std::string& name) SPINN_EXCLUDES(mu_);

  /// Scrape: one `{name, value}` row per counter/gauge, and four rows per
  /// histogram (`<name>.count`, `.p50`, `.p95`, `.p99` — integer units),
  /// sorted by name.  Counters and histogram counts are monotone across
  /// successive scrapes.
  std::vector<std::pair<std::string, std::uint64_t>> rows() const
      SPINN_EXCLUDES(mu_);

 private:
  struct Metric {
    // Exactly one is set; a tiny hand-rolled variant keeps the storage
    // stable (unique_ptr) without RTTI.
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable Mutex mu_;
  std::map<std::string, Metric> metrics_ SPINN_GUARDED_BY(mu_);
};

}  // namespace spinn::obs
