// Shared pieces of the perfbench program: clocks, sample statistics, the
// spike-stream hash every output check compares, lifecycle accounting
// (latency, SLO and failure counting), the benchmark's private span
// recorder, and the result record each workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "neural/spike_record.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Sample quantile, linear interpolation between order statistics (the
/// rule Python's statistics.quantiles(method="inclusive") and NumPy use).
/// 0 for no samples.  Kept here rather than borrowed from the library so a
/// change to the program's own percentile code cannot move the benchmark.
double quantile(std::vector<double> samples, double q);
double median(const std::vector<double>& samples);
/// Inter-quartile range as a share of the median (0 when the median is 0).
double rel_iqr(const std::vector<double>& samples);

/// FNV-1a over (time, key) of every event, in stream order.  The one
/// equality check of every workload: a stream is correct when its hash
/// equals the reference computed by the same binary.
std::uint64_t spike_hash(
    const std::vector<spinn::neural::SpikeRecorder::Event>& events);

/// Outcome accounting for a stream of operations.  A failed operation has
/// no latency sample and counts as missing every latency limit.
class LatencyLog {
 public:
  void ok(double latency_ms) {
    ++attempted_;
    samples_.push_back(latency_ms);
  }
  void fail() {
    ++attempted_;
    ++failed_;
  }
  void merge(const LatencyLog& other);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<double>& samples() const { return samples_; }
  double fail_frac() const;
  /// Share of attempted operations that succeeded within `limit_ms`.
  double slo_frac(double limit_ms) const;
  double p(double q) const { return quantile(samples_, q); }

 private:
  std::vector<double> samples_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Span recorder private to the benchmark: spans stay in memory and are
/// written out as Chrome trace JSON at the end of a traced run.  Disabled,
/// begin()/end() cost one branch.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return on_.load(std::memory_order_relaxed); }

  /// Opens a span and returns its id (0 when disabled).  `parent` is the id
  /// of the enclosing span (0 for a root), `lifecycle` is shared by every
  /// span of one lifecycle.
  std::uint64_t begin(const char* name, std::uint64_t parent,
                      std::uint64_t lifecycle);
  void end(std::uint64_t id);
  /// Records a span whose ends were timed by the caller.
  void add(const char* name, Clock::time_point t0, Clock::time_point t1,
           std::uint64_t parent, std::uint64_t lifecycle);
  std::uint64_t new_lifecycle();

  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    const char* name = "";
    Clock::time_point t0{};
    Clock::time_point t1{};
    std::uint64_t parent = 0;
    std::uint64_t lifecycle = 0;
    std::uint32_t tid = 0;
    bool open = true;
  };
  std::uint32_t thread_index();

  std::atomic<bool> on_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // span id = index + 1
  std::map<std::uint64_t, std::uint32_t> threads_;
  std::uint64_t next_lifecycle_ = 1;
  Clock::time_point epoch_ = Clock::now();
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(SpanRecorder& rec, const char* name, std::uint64_t parent = 0,
        std::uint64_t lifecycle = 0)
      : rec_(rec), id_(rec.begin(name, parent, lifecycle)) {}
  ~Scope() { rec_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint64_t id_;
};

/// One metric as printed: value, unit, and how many samples it summarises.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
  double spread = 0.0;  // within-run IQR / median, 0 for single figures
};

/// What a workload run reports.  `metrics` holds the end-to-end figures on
/// an untraced run and the per-layer figures on a traced one.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> notes;  // free-form provenance

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 1, double spread = 0.0) {
    metrics[name] = Metric{value, unit, samples, spread};
  }
  /// Adds a check's outcome: a failed check makes the run incorrect.
  void check(bool ok, const std::string& what);
  std::string to_json() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for traced runs
  unsigned threads = 1;   // hardware threads (nproc)
};

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// splitmix64: derives independent, reproducible streams from the seed.
std::uint64_t mix(std::uint64_t x);

}  // namespace perfbench
