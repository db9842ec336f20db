// Server demo: ten concurrent sessions, one resident process.
//
// Opens 10 sessions on a SessionServer — mixed apps, seeds and engines
// (serial and sharded) — runs them all interleaved slice by slice, driving
// the scheduler with poll() between incremental spike drains (the server
// owns no threads: whoever needs progress drives), then re-runs every spec
// standalone and verifies each session's streamed spikes are bit-identical
// to the standalone reference.  This is the acceptance demo for the session
// subsystem: multiplexing, engine pooling and slicing change *nothing*
// observable.
//
//   $ ./server_demo
#include <cstdio>
#include <vector>

#include "core/spinnaker.hpp"

int main() {
  using namespace spinn;
  using server::SessionSpec;

  constexpr TimeNs kRun = 25 * kMillisecond;

  // --- 1. Describe ten sessions: app x seed x engine. ----------------------
  struct Job {
    const char* app;
    std::uint64_t seed;
    sim::EngineKind engine;
    std::uint32_t shards;
  };
  const Job jobs[] = {
      {"noise", 1, sim::EngineKind::Serial, 0},
      {"noise", 1, sim::EngineKind::Sharded, 4},
      {"noise", 2, sim::EngineKind::Sharded, 2},
      {"chain", 3, sim::EngineKind::Serial, 0},
      {"chain", 3, sim::EngineKind::Sharded, 8},
      {"stdp", 4, sim::EngineKind::Serial, 0},
      {"stdp", 4, sim::EngineKind::Sharded, 4},
      {"noise", 5, sim::EngineKind::Serial, 0},
      {"chain", 6, sim::EngineKind::Sharded, 2},
      {"stdp", 7, sim::EngineKind::Sharded, 2},
  };
  std::vector<SessionSpec> specs;
  for (const Job& j : jobs) {
    SessionSpec spec;
    spec.app = j.app;
    spec.seed = j.seed;
    spec.engine = j.engine;
    spec.shards = j.shards;
    spec.threads = j.engine == sim::EngineKind::Sharded ? 2 : 0;
    specs.push_back(spec);
  }

  // --- 2. One long-lived server; all ten sessions in flight at once. ------
  server::ServerConfig cfg;
  cfg.max_sessions = specs.size();
  server::SessionServer srv(cfg);

  std::vector<server::SessionId> ids;
  for (const auto& spec : specs) {
    std::string error;
    const auto id = srv.open(spec, &error);
    if (id == server::kInvalidSession) {
      std::printf("open failed: %s\n", error.c_str());
      return 1;
    }
    srv.run(id, kRun);
    ids.push_back(id);
  }
  std::printf("opened %zu concurrent sessions\n", ids.size());

  // --- 3. Stream spikes while they run: one slice of each per round. -------
  std::vector<std::vector<neural::SpikeRecorder::Event>> streams(ids.size());
  for (bool busy = true; busy;) {
    busy = false;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto batch = srv.drain(ids[i]);
      streams[i].insert(streams[i].end(), batch.begin(), batch.end());
      if (srv.status(ids[i]).bio_now < kRun) busy = true;
    }
    for (std::size_t q = 0; q < ids.size() && srv.poll(); ++q) {
    }
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto tail = srv.drain(ids[i]);
    streams[i].insert(streams[i].end(), tail.begin(), tail.end());
  }

  // --- 4. Verify every stream against a standalone run of the same spec. --
  std::printf("\n%-4s %-6s %-8s %7s %9s %6s\n", "id", "app", "engine",
              "spikes", "bio(ms)", "match");
  std::size_t matches = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto reference = server::run_standalone(specs[i], kRun);
    const bool match =
        streams[i].size() == reference.size() &&
        std::equal(streams[i].begin(), streams[i].end(), reference.begin(),
                   [](const auto& a, const auto& b) {
                     return a.time == b.time && a.key == b.key;
                   });
    matches += match ? 1u : 0u;
    const auto st = srv.status(ids[i]);
    std::printf("%-4llu %-6s %-8s %7zu %9.0f %6s\n",
                static_cast<unsigned long long>(ids[i]), specs[i].app.c_str(),
                specs[i].engine == sim::EngineKind::Sharded ? "sharded"
                                                            : "serial",
                streams[i].size(),
                static_cast<double>(st.bio_now) / kMillisecond,
                match ? "yes" : "NO");
    srv.close(ids[i]);
  }

  const auto stats = srv.stats();
  std::printf("\n%zu/%zu session spike streams bit-identical to standalone "
              "runs\n",
              matches, ids.size());
  std::printf("server: %llu opened, %llu closed, engines %llu created / %llu "
              "reused from pool\n",
              static_cast<unsigned long long>(stats.opened),
              static_cast<unsigned long long>(stats.closed),
              static_cast<unsigned long long>(stats.engines.created),
              static_cast<unsigned long long>(stats.engines.reused));
  return matches == ids.size() ? 0 : 1;
}
