// Synthetic fabric workloads: programmable multicast traffic sources and a
// latency probe, used by the fabric experiments (E6 emergency routing, E7
// spike latency vs distance/load) without the full neural stack.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "chip/core.hpp"
#include "obs/registry.hpp"

namespace spinn::core {

/// Emits multicast packets as a Poisson process, cycling through a set of
/// keys.  Driven by the 1 ms timer like a real application.
class TrafficSource final : public chip::CoreProgram {
 public:
  struct Config {
    std::vector<RoutingKey> keys;
    /// Mean packets per 1 ms tick.
    double packets_per_tick = 1.0;
  };

  explicit TrafficSource(Config cfg) : cfg_(std::move(cfg)) {}

  std::uint64_t on_timer(chip::CoreApi& api) override {
    if (cfg_.keys.empty()) return 50;
    const std::uint32_t n = api.rng().poisson(cfg_.packets_per_tick);
    for (std::uint32_t i = 0; i < n; ++i) {
      api.send_mc(cfg_.keys[next_key_ % cfg_.keys.size()]);
      ++next_key_;
    }
    sent_ += n;
    return 50 + 30ull * n;
  }

  std::uint64_t sent() const { return sent_; }

 private:
  Config cfg_;
  std::size_t next_key_ = 0;
  std::uint64_t sent_ = 0;
};

/// Records end-to-end latency (launch -> core delivery) of every packet it
/// receives into a shared histogram, and tracks the exact maximum itself.
class LatencyProbe final : public chip::CoreProgram {
 public:
  explicit LatencyProbe(obs::Histogram* histogram)
      : histogram_(histogram) {}

  std::uint64_t on_packet(chip::CoreApi& api,
                          const router::Packet& p) override {
    const TimeNs latency = api.now() - p.launched_at;
    if (histogram_ != nullptr) histogram_->observe(latency);
    max_latency_ = std::max(max_latency_, latency);
    ++received_;
    return 25;
  }

  std::uint64_t received() const { return received_; }
  TimeNs max_latency() const { return max_latency_; }

 private:
  obs::Histogram* histogram_;
  std::uint64_t received_ = 0;
  TimeNs max_latency_ = 0;
};

/// A sink that simply counts deliveries (for loss accounting).
class CountingSink final : public chip::CoreProgram {
 public:
  std::uint64_t on_packet(chip::CoreApi& api,
                          const router::Packet& p) override {
    (void)api;
    (void)p;
    ++received_;
    return 25;
  }
  std::uint64_t received() const { return received_; }

 private:
  std::uint64_t received_ = 0;
};

}  // namespace spinn::core
