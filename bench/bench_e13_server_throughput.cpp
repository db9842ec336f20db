// E13 — session-server throughput: the first trajectory point for the
// serving direction.
//
// The ROADMAP's north star is a front-end taking "heavy traffic from
// millions of users"; what that costs today is exactly what this bench
// records: sessions/second through the full lifecycle (open -> build ->
// run -> drain -> close) at increasing concurrency, the engine pool's
// reuse rate (how much machine bring-up the pool amortises away), and
// time-to-first-spike — the latency a polling client sees between opening a
// session and receiving its first streamed event.
//
// Each session is a 2x2-chip machine running the "chain" app for 10 ms of
// biological time; the load is deliberately small so the bench measures the
// serving overhead (scheduling, slicing, pooling, drains), not the neural
// kernel (bench_e11/e12 cover that).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/spinnaker.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"

namespace {

using namespace spinn;

constexpr TimeNs kBioPerSession = 10 * kMillisecond;
constexpr int kSessionsPerRound = 16;

using spinn::sim::percentile;

/// Wall-clock of one server API call, appended to `lat_us`.
template <class F>
auto timed_us(std::vector<double>& lat_us, F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto result = fn();
  lat_us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  return result;
}

server::SessionSpec session_spec(std::uint64_t seed, bool sharded) {
  server::SessionSpec spec;
  spec.app = "chain";
  spec.seed = seed;
  if (sharded) {
    spec.engine = sim::EngineKind::Sharded;
    spec.shards = 2;
    spec.threads = 2;
  }
  return spec;
}

/// Run kSessionsPerRound sessions through a server, at most `concurrency`
/// in flight, recording each API call's latency into `lat_us`.  Returns
/// total spikes drained (sanity that sessions ran).
std::size_t serve_round(server::SessionServer& srv, std::size_t concurrency,
                        bool sharded, std::vector<double>& lat_us) {
  std::size_t spikes = 0;
  std::vector<server::SessionId> inflight;
  std::uint64_t seed = 1;
  int opened = 0;
  while (opened < kSessionsPerRound || !inflight.empty()) {
    while (opened < kSessionsPerRound && inflight.size() < concurrency) {
      const auto id = timed_us(
          lat_us, [&] { return srv.open(session_spec(seed++, sharded)); });
      if (id == server::kInvalidSession) break;
      timed_us(lat_us, [&] { return srv.run(id, kBioPerSession); });
      inflight.push_back(id);
      ++opened;
    }
    if (inflight.empty()) break;  // every open rejected: nothing to wait on
    // Complete the oldest in-flight session (FIFO keeps all lanes busy).
    const auto id = inflight.front();
    inflight.erase(inflight.begin());
    srv.wait(id);  // untimed: wait is dominated by simulation, not serving
    spikes += timed_us(lat_us, [&] { return srv.drain(id).size(); });
    timed_us(lat_us, [&] { return srv.close(id); });
  }
  return spikes;
}

double measure_ttfs_ms(server::SessionServer& srv, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const auto id = srv.open(session_spec(seed, /*sharded=*/false));
  if (id == server::kInvalidSession) return -1.0;
  srv.run(id, kBioPerSession);
  // Poll exactly like a streaming embedder would: one quantum, one drain.
  for (;;) {
    if (!srv.drain(id).empty()) break;
    if (srv.status(id).bio_now >= kBioPerSession) break;  // no spikes at all
    srv.poll();
  }
  const double ms = std::chrono::duration<double, std::milli>(clock::now() -
                                                              t0)
                        .count();
  srv.wait(id);
  srv.close(id);
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e13_server_throughput", argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E13: session-server throughput, %d sessions/round of %.0f ms "
              "bio each (%u hw threads)\n\n",
              kSessionsPerRound,
              static_cast<double>(kBioPerSession) / kMillisecond, hw);

  server::ServerConfig cfg;
  cfg.max_sessions = 16;
  server::SessionServer srv(cfg);

  std::printf("%-14s %10s %12s %14s\n", "section", "sessions", "time(ms)",
              "sessions/s");
  double sessions_per_sec_c1 = 0.0;
  double sessions_per_sec_c8 = 0.0;
  std::size_t spikes = 0;
  std::vector<double> req_lat_us;
  std::vector<double> warmup_lat_us;  // discarded: cold-start samples
  // Warmup repetitions record into the throwaway vector, so the published
  // per-request percentiles are steady-state serving latency only.
  const auto lat_sink = [&]() -> std::vector<double>& {
    return h.warming_up() ? warmup_lat_us : req_lat_us;
  };
  for (const std::size_t concurrency : {1u, 2u, 4u, 8u}) {
    char section[32];
    std::snprintf(section, sizeof section, "serve_c%zu", concurrency);
    h.run(section, [&] {
      spikes = serve_round(srv, concurrency, false, lat_sink());
    });
    const double ms = h.section_ms(section);
    const double rate = ms > 0.0 ? 1e3 * kSessionsPerRound / ms : 0.0;
    if (concurrency == 1) sessions_per_sec_c1 = rate;
    if (concurrency == 8) sessions_per_sec_c8 = rate;
    std::printf("%-14s %10d %12.1f %14.0f\n", section, kSessionsPerRound, ms,
                rate);
    if (spikes == 0) std::printf("  WARNING: round produced no spikes\n");
  }

  // Mixed-engine round: half the value of the pool is that sharded engines
  // (worker pools and all) get recycled too.
  h.run("serve_c4_sharded",
        [&] { spikes = serve_round(srv, 4, /*sharded=*/true, lat_sink()); });
  std::printf("%-14s %10d %12.1f %14.0f\n", "serve_c4_shard",
              kSessionsPerRound, h.section_ms("serve_c4_sharded"),
              h.section_ms("serve_c4_sharded") > 0.0
                  ? 1e3 * kSessionsPerRound / h.section_ms("serve_c4_sharded")
                  : 0.0);

  // Time-to-first-spike, measured outside the harness sections (it is a
  // latency, not a section time).  Enough probes for a meaningful tail:
  // with 20 samples p99 interpolates between the two slowest.
  std::vector<double> ttfs;
  for (std::uint64_t i = 0; i < 20; ++i) {
    ttfs.push_back(measure_ttfs_ms(srv, 1000 + i));
  }
  const double ttfs_p50 = percentile(ttfs, 0.50);
  const double ttfs_p99 = percentile(ttfs, 0.99);
  std::printf("\ntime-to-first-spike (open -> first drained event): "
              "p50=%.2f ms p99=%.2f ms over %zu probes\n",
              ttfs_p50, ttfs_p99, ttfs.size());
  const double req_p50 = percentile(req_lat_us, 0.50);
  const double req_p99 = percentile(req_lat_us, 0.99);
  std::printf("per-request serving latency (open/run/drain/close): "
              "p50=%.1f us p99=%.1f us over %zu calls\n",
              req_p50, req_p99, req_lat_us.size());

  const auto stats = srv.stats();
  const double reuse =
      stats.engines.created + stats.engines.reused > 0
          ? static_cast<double>(stats.engines.reused) /
                static_cast<double>(stats.engines.created +
                                    stats.engines.reused)
          : 0.0;
  std::printf("engine pool: %llu created, %llu reused (%.0f%% of "
              "acquisitions served from the pool)\n",
              static_cast<unsigned long long>(stats.engines.created),
              static_cast<unsigned long long>(stats.engines.reused),
              1e2 * reuse);

  h.metric("hw_threads", static_cast<double>(hw), "threads");
  h.metric("sessions_per_sec_c1", sessions_per_sec_c1, "sessions/s");
  h.metric("sessions_per_sec_c8", sessions_per_sec_c8, "sessions/s");
  h.metric("ttfs_ms", ttfs_p50, "ms");  // kept: the pre-PR4 trajectory name
  h.metric("ttfs_p50_ms", ttfs_p50, "ms");
  h.metric("ttfs_p99_ms", ttfs_p99, "ms");
  h.metric("req_latency_p50_us", req_p50, "us");
  h.metric("req_latency_p99_us", req_p99, "us");
  h.metric("engine_reuse_fraction", reuse, "");
  h.metric("bio_ms_per_session",
           static_cast<double>(kBioPerSession) / kMillisecond, "ms");
  return h.finish();
}
