#include "obs/registry.hpp"

#include <algorithm>
#include <array>

namespace spinn::obs {

namespace detail {

std::size_t this_thread_shard() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return shard;
}

}  // namespace detail

namespace {

using Snapshot = std::array<std::uint64_t, Histogram::kBins>;

/// The one binned-percentile routine: walk a fixed snapshot to the bin
/// holding rank p * total, then interpolate linearly inside that bin.
std::int64_t interpolate(const Snapshot& snap, std::uint64_t total,
                         double p) {
  if (total == 0) return 0;
  const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    const double next = seen + static_cast<double>(snap[i]);
    if (next >= target && snap[i] > 0) {
      const double frac = (target - seen) / static_cast<double>(snap[i]);
      return Histogram::bin_lo(i) +
             static_cast<std::int64_t>(
                 frac * static_cast<double>(Histogram::bin_width(i)));
    }
    seen = next;
  }
  return Histogram::kTop;
}

/// Relaxed copy of the live bins: the counts keep moving under us, and
/// interpolating over a fixed copy keeps each answer internally consistent.
std::uint64_t snapshot(
    const std::array<std::atomic<std::uint64_t>, Histogram::kBins>& bins,
    Snapshot* snap) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < bins.size(); ++i) {
    (*snap)[i] = bins[i].load(std::memory_order_relaxed);
    total += (*snap)[i];
  }
  return total;
}

}  // namespace

std::uint64_t Histogram::count() const noexcept {
  Snapshot snap;
  return snapshot(counts_, &snap);
}

std::int64_t Histogram::percentile(double p) const noexcept {
  Snapshot snap;
  return interpolate(snap, snapshot(counts_, &snap), p);
}

Histogram::Summary Histogram::summary() const noexcept {
  Snapshot snap;
  const std::uint64_t total = snapshot(counts_, &snap);
  Summary s;
  s.count = total;
  s.p50 = interpolate(snap, total, 0.50);
  s.p95 = interpolate(snap, total, 0.95);
  s.p99 = interpolate(snap, total, 0.99);
  return s;
}

Registry& Registry::global() {
  static Registry* r = new Registry();  // leaked: see header
  return *r;
}

Counter& Registry::counter(const std::string& name) {
  MutexLock lk(&mu_);
  Metric& m = metrics_[name];
  if (!m.counter) m.counter = std::make_unique<Counter>();
  return *m.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  MutexLock lk(&mu_);
  Metric& m = metrics_[name];
  if (!m.gauge) m.gauge = std::make_unique<Gauge>();
  return *m.gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  MutexLock lk(&mu_);
  Metric& m = metrics_[name];
  if (!m.histogram) m.histogram = std::make_unique<Histogram>();
  return *m.histogram;
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::rows() const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  MutexLock lk(&mu_);
  for (const auto& [name, m] : metrics_) {
    if (m.counter) out.emplace_back(name, m.counter->value());
    if (m.gauge) {
      out.emplace_back(name,
                       static_cast<std::uint64_t>(m.gauge->value()));
    }
    if (m.histogram) {
      const Histogram::Summary s = m.histogram->summary();
      out.emplace_back(name + ".count", s.count);
      out.emplace_back(name + ".p50", static_cast<std::uint64_t>(s.p50));
      out.emplace_back(name + ".p95", static_cast<std::uint64_t>(s.p95));
      out.emplace_back(name + ".p99", static_cast<std::uint64_t>(s.p99));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace spinn::obs
