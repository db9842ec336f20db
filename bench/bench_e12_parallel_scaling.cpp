// E12 — sharded-engine parallel scaling.
//
// The paper's machine is a GALS system: locally-synchronous chips behind an
// asynchronous, bounded-latency fabric (§3, §4).  The sharded engine
// exploits exactly that structure — per-shard event queues synchronised by a
// conservative window equal to the minimum inter-shard link latency — so the
// simulator of a massively-parallel machine is itself massively parallel.
//
// This bench sweeps worker threads 1 -> 8 over a large-mesh spiking network
// and reports events/second and speedup vs the serial reference engine.  The
// link flight time is set to 1 us (a board-to-board figure rather than the
// 10 ns on-PCB default) to give the conservative window realistic room; the
// results are bit-identical either way, only wall-clock changes.  Sanity:
// every configuration's spike stream is FNV-1a hashed over (time, key) and
// checked against the serial run's hash — a mismatch marks the bench output
// and the equality metric.
//
// The headline speedup is the one at the host's hardware thread count
// (capped at the 8 shards): more threads than cores measures barrier
// overhead, not scaling.  `shard_max_over_mean` is the per-shard
// executed-event balance of the sharded run (1.0 = perfectly even).
#include <algorithm>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "harness.hpp"
#include "sim/sharded_simulator.hpp"

namespace {

using namespace spinn;

constexpr TimeNs kRunTime = 10 * kMillisecond;
constexpr std::uint32_t kShards = 8;

SystemConfig scenario_config(const sim::EngineConfig& engine) {
  SystemConfig cfg;
  cfg.machine.width = 12;
  cfg.machine.height = 12;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = 12;
  // Board-level link latency: the conservative parallel window.
  cfg.machine.chip.router.port.flight_ns = 1000;
  cfg.mapper.neurons_per_core = 256;
  cfg.engine = engine;
  return cfg;
}

struct RunResult {
  std::uint64_t spikes = 0;
  std::uint64_t spike_hash = 0;
  std::uint64_t events = 0;
  std::vector<std::uint64_t> shard_events;  // empty on the serial engine
};

/// FNV-1a over (time, key) of every recorded spike, in stream order.
std::uint64_t hash_spikes(const std::vector<neural::SpikeRecorder::Event>& ev) {
  std::uint64_t h = 14695981039346656037ull;
  const auto feed = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& e : ev) {
    feed(static_cast<std::uint64_t>(e.time));
    feed(static_cast<std::uint64_t>(e.key));
  }
  return h;
}

RunResult run_scenario(const sim::EngineConfig& engine) {
  System sys(scenario_config(engine));
  neural::Network net;
  // ~18k LIF neurons driven by 6k Poisson sources, sparse random fan-out:
  // the per-tick neuron updates are the parallel compute, the spike traffic
  // is the cross-shard communication.
  const auto noise = net.add_poisson("noise", 6000, 30.0);
  const auto exc = net.add_lif("exc", 18000);
  net.connect(noise, exc, neural::Connector::fixed_probability(0.0045),
              neural::ValueDist::uniform(4.0, 8.0),
              neural::ValueDist::fixed(1.0));
  net.connect(exc, exc, neural::Connector::fixed_probability(0.0005),
              neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
  if (!sys.load(net).ok) return {};
  sys.run(kRunTime);
  RunResult r{sys.spikes().count(), hash_spikes(sys.spikes().events()),
              sys.engine().executed(), {}};
  if (auto* e = dynamic_cast<sim::ShardedSimulator*>(&sys.engine())) {
    r.shard_events.assign(e->num_shards(), 0);
    for (sim::ActorId a = 0; a <= sys.machine().num_chips(); ++a) {
      r.shard_events[e->shard_of_actor(a)] =
          e->context_of(a).queue().executed();
    }
  }
  return r;
}

sim::EngineConfig sharded(std::uint32_t threads) {
  sim::EngineConfig ec;
  ec.kind = sim::EngineKind::Sharded;
  ec.shards = kShards;
  ec.threads = threads;
  return ec;
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e12_parallel_scaling", argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E12: sharded-engine scaling on a 12x12 mesh (%u hw threads)\n\n",
              hw);

  RunResult serial{};
  double serial_ms = 0.0;
  h.run("serial", [&] { serial = run_scenario(sim::EngineConfig{}); });
  serial_ms = h.section_ms("serial");
  std::printf("%-12s %14s %14s %12s %10s %8s\n", "engine", "events",
              "events/s", "spikes", "time(ms)", "speedup");
  std::printf("%-12s %14llu %14.0f %12llu %10.1f %8s\n", "serial",
              static_cast<unsigned long long>(serial.events),
              serial_ms > 0.0 ? 1e3 * static_cast<double>(serial.events) /
                                    serial_ms
                              : 0.0,
              static_cast<unsigned long long>(serial.spikes), serial_ms,
              "1.00x");

  // Sweep 1, 2, 4, 8 threads plus the host's own count, headline at the
  // latter (capped at the shard count, beyond which threads sit idle).
  const std::uint32_t headline =
      std::clamp<std::uint32_t>(hw, 1u, kShards);
  std::vector<std::uint32_t> sweep{1u, 2u, 4u, 8u, headline};
  std::sort(sweep.begin(), sweep.end());
  sweep.erase(std::unique(sweep.begin(), sweep.end()), sweep.end());
  bool all_equal = true;
  double speedup_headline = 0.0;
  std::vector<std::uint64_t> shard_events;
  for (const std::uint32_t threads : sweep) {
    char section[32];
    std::snprintf(section, sizeof section, "sharded_%ut", threads);
    RunResult r{};
    h.run(section, [&] { r = run_scenario(sharded(threads)); });
    const double ms = h.section_ms(section);
    const double speedup = ms > 0.0 ? serial_ms / ms : 0.0;
    if (threads == headline) speedup_headline = speedup;
    shard_events = r.shard_events;  // identical at every thread count
    const bool equal = r.spike_hash == serial.spike_hash;
    all_equal = all_equal && equal;
    std::printf("%-12s %14llu %14.0f %12llu %10.1f %7.2fx%s\n", section,
                static_cast<unsigned long long>(r.events),
                ms > 0.0 ? 1e3 * static_cast<double>(r.events) / ms : 0.0,
                static_cast<unsigned long long>(r.spikes), ms, speedup,
                equal ? "" : "  SPIKE STREAM MISMATCH vs serial!");
  }
  double shard_max = 0.0;
  double shard_sum = 0.0;
  std::printf("\nexecuted events per shard:");
  for (const std::uint64_t n : shard_events) {
    std::printf(" %llu", static_cast<unsigned long long>(n));
    shard_max = std::max(shard_max, static_cast<double>(n));
    shard_sum += static_cast<double>(n);
  }
  const double shard_balance =
      shard_sum > 0.0 ? shard_max * static_cast<double>(shard_events.size()) /
                            shard_sum
                      : 0.0;
  std::printf("  (max/mean %.2f)\n", shard_balance);
  std::printf("%u shards, conservative window = 1 us link flight; spike "
              "stream hash-identical to serial: %s.\n",
              kShards, all_equal ? "yes" : "NO");
  std::printf("headline speedup at %u thread(s) (this host has %u hw "
              "threads): %.2fx\n",
              headline, hw, speedup_headline);

  h.metric("hw_threads", static_cast<double>(hw), "threads");
  h.metric("speedup_hw_threads", speedup_headline, "x");
  h.metric("shard_max_over_mean", shard_balance, "x");
  h.metric("serial_events_per_sec",
           serial_ms > 0.0
               ? 1e3 * static_cast<double>(serial.events) / serial_ms
               : 0.0,
           "events/s");
  h.metric("spike_equality", all_equal ? 1.0 : 0.0, "bool");
  return h.finish();
}
