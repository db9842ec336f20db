#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double median(const std::vector<double>& samples) {
  return quantile(samples, 0.5);
}

double rel_iqr(const std::vector<double>& samples) {
  const double m = median(samples);
  if (m == 0.0) return 0.0;
  return (quantile(samples, 0.75) - quantile(samples, 0.25)) / std::fabs(m);
}

std::uint64_t spike_hash(
    const std::vector<spinn::neural::SpikeRecorder::Event>& events) {
  std::uint64_t h = 1469598103934665603ull;
  auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  feed(events.size());
  for (const auto& e : events) {
    feed(static_cast<std::uint64_t>(e.time));
    feed(static_cast<std::uint64_t>(e.key));
  }
  return h;
}

void LatencyLog::merge(const LatencyLog& other) {
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.end());
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

double LatencyLog::fail_frac() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

double LatencyLog::slo_frac(double limit_ms) const {
  if (attempted_ == 0) return 0.0;
  const auto within = std::count_if(samples_.begin(), samples_.end(),
                                    [&](double ms) { return ms <= limit_ms; });
  return static_cast<double>(within) / static_cast<double>(attempted_);
}

std::uint32_t SpanRecorder::thread_index() {
  const auto key = static_cast<std::uint64_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const auto it = threads_.find(key);
  if (it != threads_.end()) return it->second;
  const auto index = static_cast<std::uint32_t>(threads_.size() + 1);
  threads_.emplace(key, index);
  return index;
}

std::uint64_t SpanRecorder::begin(const char* name, std::uint64_t parent,
                                  std::uint64_t lifecycle) {
  if (!enabled()) return 0;
  const auto t0 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) return 0;
  spans_.push_back(Span{name, t0, t0, parent, lifecycle, thread_index()});
  return spans_.size();
}

void SpanRecorder::end(std::uint64_t id) {
  if (id == 0) return;
  const auto t1 = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[id - 1];
  s.t1 = t1;
  s.open = false;
}

void SpanRecorder::add(const char* name, Clock::time_point t0,
                       Clock::time_point t1, std::uint64_t parent,
                       std::uint64_t lifecycle) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (spans_.size() >= kMaxSpans) return;
  spans_.push_back(
      Span{name, t0, t1, parent, lifecycle, thread_index(), false});
}

std::uint64_t SpanRecorder::new_lifecycle() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_lifecycle_++;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"traceEvents\":[";
  char buf[512];
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.open) continue;
    const double ts_us =
        std::chrono::duration<double, std::micro>(s.t0 - epoch_).count();
    const double dur_us =
        std::chrono::duration<double, std::micro>(s.t1 - s.t0).count();
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%llu,\"lifecycle\":%llu}}",
                  first ? "" : ",", s.name, s.tid, ts_us, dur_us, i + 1,
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.lifecycle));
    out << buf;
    first = false;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Result::to_json() const {
  std::string out = "{\"correct\":";
  out += correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    first = false;
    out += json_string(name) + ":{\"value\":" + json_number(m.value) +
           ",\"unit\":" + json_string(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) +
           ",\"spread\":" + json_number(m.spread) + "}";
  }
  out += "},\"notes\":{";
  first = true;
  for (const auto& [key, value] : notes) {
    if (!first) out += ',';
    first = false;
    out += json_string(key) + ":" + json_string(value);
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace perfbench
