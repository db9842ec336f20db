#include "sim/engine.hpp"

#include "obs/registry.hpp"
#include "sim/sharded_simulator.hpp"

namespace spinn::sim {

void record_events(std::uint64_t n) {
  static obs::Counter& c = obs::Registry::global().counter("sim.events");
  c.inc(n);
}

std::unique_ptr<ISimulationEngine> make_engine(const EngineConfig& cfg,
                                               std::uint64_t seed) {
  if (cfg.kind == EngineKind::Sharded) {
    return std::make_unique<ShardedSimulator>(seed, cfg.shards, cfg.threads);
  }
  return std::make_unique<SerialEngine>(seed);
}

}  // namespace spinn::sim
