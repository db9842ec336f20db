// E14 — socket-transport throughput: connections × pipeline-depth sweep.
//
// PR 3's bench_e13 measured the session subsystem through the embedded
// API; this bench puts the new src/net transport in front of the same
// server and asks what serving costs once requests cross a socket: batch
// frames (one round-trip per session lifecycle), pipelining (several
// lifecycles in flight per connection), many concurrent connections
// multiplexed by the one reactor thread, which also drives the sessions.
// The headline comparison is single-stream embedded serving (the e13
// baseline, reproduced here on an identically-configured PR 3 server in
// this process) vs batched/pipelined socket serving — the transport must
// at least keep up with the stdio-era numbers for the "heavy traffic"
// story to hold
// (ISSUE 4 acceptance).  Time-to-first-spike is measured as a polling
// socket client sees it, p50/p99.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/spinnaker.hpp"
#include "harness.hpp"
#include "sim/stats.hpp"

namespace {

using namespace spinn;

constexpr TimeNs kBioPerSession = 10 * kMillisecond;
constexpr int kSessionsPerRound = 64;
/// Sessions are ~tens of microseconds of simulation each, so a single
/// round is mostly scheduler noise; every section publishes the min of
/// this many repetitions.
constexpr int kMinReps = 3;

using spinn::sim::percentile;

std::string session_batch(std::uint64_t seed) {
  return "open app=chain seed=" + std::to_string(seed) +
         "\nrun $ " +
         std::to_string(static_cast<double>(kBioPerSession) / kMillisecond) +
         "\nwait $\ndrain $\nclose $";
}

/// The client-described network for the wire-submitted-net column: a
/// chain-like stimulus plus background noise into a LIF sheet — enough
/// populations/projections that parsing and compiling are visible, small
/// enough that a lifecycle stays milliseconds.
const std::vector<std::string>& custom_net_lines() {
  static const std::vector<std::string> lines = [] {
    net::NetBuilder b;
    b.spike_source("stim", {{1, 5}, {3}});
    b.poisson("bg", 24, 30.0);
    b.lif("cells", 48);
    b.project("stim", "cells", neural::Connector::all_to_all(),
              neural::ValueDist::fixed(15.0), neural::ValueDist::fixed(1.0));
    b.project("bg", "cells", neural::Connector::fixed_probability(0.25),
              neural::ValueDist::uniform(2.0, 6.0),
              neural::ValueDist::fixed(1.0));
    return b.lines();
  }();
  return lines;
}

/// A whole wire-submitted-net lifecycle in one frame: describe the net,
/// open it (`app=@`), run, wait, drain, close — submission + compile +
/// serving, the general-purpose analogue of session_batch().
std::string custom_net_batch(std::uint64_t seed) {
  std::string frame;
  for (const std::string& line : custom_net_lines()) {
    frame += line;
    frame += '\n';
  }
  frame += "open app=@ seed=" + std::to_string(seed) + "\nrun $ " +
           std::to_string(static_cast<double>(kBioPerSession) /
                          kMillisecond) +
           "\nwait $\ndrain $\nclose $";
  return frame;
}

using BatchFn = std::string (*)(std::uint64_t);

/// One connection working through `quota` session lifecycles with up to
/// `depth` batch frames in flight.  Returns spikes drained (sanity).
std::size_t drive_connection(net::Client& client, std::uint64_t seed_base,
                             int quota, int depth, BatchFn batch_fn) {
  std::size_t spikes = 0;
  int sent = 0;
  int received = 0;
  while (received < quota) {
    while (sent < quota && sent - received < depth) {
      if (!client.send(
              batch_fn(seed_base + static_cast<std::uint64_t>(sent)))) {
        return spikes;
      }
      ++sent;
    }
    const auto blocks = net::Client::split_response(client.receive());
    // The drain block is second-to-last in both shapes (5 blocks for an
    // app batch, 6 when a net block leads).
    if (blocks.size() >= 2) {
      std::vector<neural::SpikeRecorder::Event> events;
      if (net::parse_spikes(blocks[blocks.size() - 2], &events)) {
        spikes += events.size();
      }
    }
    ++received;
  }
  return spikes;
}

/// A persistent pool of client threads, one connection each, parked on a
/// condition variable between rounds — so a timed round measures serving,
/// not pthread_create/connect.
class ClientPool {
 public:
  ClientPool(std::uint16_t port, int size) {
    clients_.reserve(static_cast<std::size_t>(size));
    done_.assign(static_cast<std::size_t>(size), true);
    spikes_.assign(static_cast<std::size_t>(size), 0);
    for (int i = 0; i < size; ++i) {
      clients_.push_back(std::make_unique<net::Client>(port));
    }
    for (int i = 0; i < size; ++i) {
      threads_.emplace_back([this, i] { worker(i); });
    }
  }

  ~ClientPool() {
    {
      spinn::MutexLock lk(&mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  /// Run kSessionsPerRound lifecycles over the first `connections`
  /// clients, each pipelining `depth` batches of `batch_fn` (default: the
  /// built-in chain app).  Returns spikes drained.
  std::size_t round(int connections, int depth,
                    BatchFn batch_fn = session_batch) {
    {
      spinn::MutexLock lk(&mu_);
      quota_ = kSessionsPerRound / connections;
      depth_ = depth;
      batch_fn_ = batch_fn;
      ++generation_;
      for (int i = 0; i < connections; ++i) {
        done_[static_cast<std::size_t>(i)] = false;
      }
      active_ = connections;
    }
    cv_.notify_all();
    spinn::MutexLock lk(&mu_);
    while (active_ != 0) done_cv_.wait(lk);
    std::size_t total = 0;
    for (int i = 0; i < connections; ++i) {
      total += spikes_[static_cast<std::size_t>(i)];
    }
    return total;
  }

 private:
  void worker(int index) {
    std::uint64_t seen = 0;
    for (;;) {
      int quota = 0;
      int depth = 0;
      BatchFn batch_fn = session_batch;
      {
        spinn::MutexLock lk(&mu_);
        while (!stop_ && (generation_ == seen ||
                          done_[static_cast<std::size_t>(index)])) {
          cv_.wait(lk);
        }
        if (stop_) return;
        seen = generation_;
        quota = quota_;
        depth = depth_;
        batch_fn = batch_fn_;
      }
      const std::size_t result = drive_connection(
          *clients_[static_cast<std::size_t>(index)],
          static_cast<std::uint64_t>(1 + index * quota), quota, depth,
          batch_fn);
      {
        spinn::MutexLock lk(&mu_);
        spikes_[static_cast<std::size_t>(index)] = result;
        done_[static_cast<std::size_t>(index)] = true;
        --active_;
      }
      done_cv_.notify_one();
    }
  }

  std::vector<std::unique_ptr<net::Client>> clients_;
  std::vector<std::thread> threads_;
  spinn::Mutex mu_;
  spinn::CondVar cv_;
  spinn::CondVar done_cv_;
  std::vector<bool> done_ SPINN_GUARDED_BY(mu_);
  std::vector<std::size_t> spikes_ SPINN_GUARDED_BY(mu_);
  std::uint64_t generation_ SPINN_GUARDED_BY(mu_) = 0;
  int quota_ SPINN_GUARDED_BY(mu_) = 0;
  int depth_ SPINN_GUARDED_BY(mu_) = 0;
  BatchFn batch_fn_ SPINN_GUARDED_BY(mu_) = session_batch;
  int active_ SPINN_GUARDED_BY(mu_) = 0;
  bool stop_ SPINN_GUARDED_BY(mu_) = false;
};

/// Submission + compile latency of a wire-described net: one batch frame
/// carrying the net block, `open app=@` and a `wait $` that resolves once
/// the build (parse, validate, place, route, load) finished on the server.
double measure_submit_compile_ms(std::uint16_t port, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  net::Client client(port);
  std::vector<std::string> lines = custom_net_lines();
  lines.push_back("open app=@ seed=" + std::to_string(seed));
  lines.push_back("wait $");
  lines.push_back("close $");
  const auto t0 = clock::now();
  const auto blocks = net::Client::split_response(client.batch(lines));
  const double ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  return blocks.size() == 4 && blocks.back() == "ok" ? ms : -1.0;
}

/// The e13 baseline: embedded API, one session at a time (the stdio-era
/// serving model — one client, one request in flight).
std::size_t embedded_round(server::SessionServer& srv) {
  std::size_t spikes = 0;
  for (std::uint64_t i = 0; i < kSessionsPerRound; ++i) {
    server::SessionSpec spec;
    spec.app = "chain";
    spec.seed = 500 + i;
    const auto id = srv.open(spec);
    if (id == server::kInvalidSession) continue;
    srv.run(id, kBioPerSession);
    srv.wait(id);
    spikes += srv.drain(id).size();
    srv.close(id);
  }
  return spikes;
}

/// Time from sending `open+run` to receiving the first drained spike, as a
/// polling socket client.
double measure_ttfs_ms(std::uint16_t port, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  net::Client client(port);
  const auto t0 = clock::now();
  const auto blocks = net::Client::split_response(client.batch(
      {"open app=chain seed=" + std::to_string(seed), "run $ 10"}));
  server::SessionId id = server::kInvalidSession;
  if (blocks.empty() || !net::parse_open_id(blocks[0], &id)) return -1.0;
  const std::string sid = std::to_string(id);
  std::vector<neural::SpikeRecorder::Event> events;
  for (;;) {
    const std::string drained = client.request("drain " + sid);
    if (drained.empty()) return -1.0;  // transport lost: discard the probe
    if (net::parse_spikes(drained, &events) && !events.empty()) break;
    const std::string st = client.request("status " + sid);
    if (st.empty()) return -1.0;
    if (st.find("state=ready") != std::string::npos &&
        st.find(" t=" + std::to_string(kBioPerSession) + " ") !=
            std::string::npos) {
      break;  // ran dry without a spike (never for chain, but bounded)
    }
  }
  const double ms =
      std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  client.batch({"wait " + sid, "close " + sid});
  return ms;
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e14_net_throughput", argc, argv);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("E14: socket-transport throughput, %d sessions/round of "
              "%.0f ms bio each (%u hw threads)\n\n",
              kSessionsPerRound,
              static_cast<double>(kBioPerSession) / kMillisecond, hw);

  // The baseline: bench_e13's exact SessionServer config (16 slots, no
  // transport) driven one session at a time, wait() servicing each on
  // this thread.
  server::ServerConfig e13_cfg;
  e13_cfg.max_sessions = 16;
  server::SessionServer baseline(e13_cfg);

  // The system under test: the reactor drives the scheduler between epoll
  // waits, so the socket path pays no cross-thread handoff.  The coarse
  // slice drops per-quantum scheduling overhead; fairness across
  // connections comes from the reactor's wall-clock drive budget rather
  // than sub-session slicing.
  net::NetConfig cfg;
  cfg.session.slice = kBioPerSession;
  cfg.session.max_sessions = 64;  // 8 conns × depth 4 all in flight
  net::NetServer srv(cfg);

  ClientPool pool(srv.port(), 8);

  // Warm both paths before timing anything: first-touch costs (engine
  // construction, page faults, the reactor's first accepts) hit whichever
  // section runs first otherwise.
  embedded_round(baseline);
  pool.round(2, 2);

  std::size_t spikes = 0;
  h.run("embedded_c1", [&] { spikes = embedded_round(baseline); },
        kMinReps);
  const double base_ms = h.section_ms("embedded_c1");
  const double base_rate =
      base_ms > 0.0 ? 1e3 * kSessionsPerRound / base_ms : 0.0;
  std::printf("%-16s %10s %12s %14s\n", "section", "sessions", "time(ms)",
              "sessions/s");
  std::printf("%-16s %10d %12.1f %14.0f  (bench_e13 baseline)\n",
              "embedded_c1", kSessionsPerRound, base_ms, base_rate);

  double best_rate = 0.0;
  double rate_c8d4 = 0.0;
  for (const int connections : {1, 2, 4, 8}) {
    for (int depth : {1, 4, 16}) {
      // Depth beyond a connection's share of the round is meaningless.
      if (depth > kSessionsPerRound / connections) {
        if (depth != 4) continue;  // keep the c8d4 acceptance point
        depth = kSessionsPerRound / connections;
      }
      char section[32];
      std::snprintf(section, sizeof section, "net_c%dd%d", connections,
                    depth);
      h.run(section, [&] { spikes = pool.round(connections, depth); },
            kMinReps);
      const double ms = h.section_ms(section);
      const double rate = ms > 0.0 ? 1e3 * kSessionsPerRound / ms : 0.0;
      best_rate = std::max(best_rate, rate);
      if (connections == 8 && depth == 4) rate_c8d4 = rate;
      std::printf("%-16s %10d %12.1f %14.0f\n", section, kSessionsPerRound,
                  ms, rate);
      if (spikes == 0) std::printf("  WARNING: round produced no spikes\n");
    }
  }
  std::printf("\nbatched/pipelined peak vs embedded single-stream: "
              "%.2fx\n", base_rate > 0.0 ? best_rate / base_rate : 0.0);

  // The observability tax: the identical c8d4 workload while a ninth
  // connection scrapes `metrics` at ~1 ms cadence — the acceptance bar is
  // that continuous scraping costs <= 2% of throughput (sharded counters
  // and seqlock trace rings are how the telemetry path earns that).
  // Measurement design, forced by a 1-core container where a ~4.5 ms
  // round wobbles tens of percent between back-to-back sections:
  //   * three arms — unobserved, ninth connection polling `ping`, ninth
  //     connection scraping `metrics` — *interleaved* round-robin so all
  //     three sample the same cache/scheduler state (sequential sections
  //     showed a pure ordering bias larger than the effect);
  //   * min-of-10 per arm, taken by hand (the harness runs a section's
  //     reps consecutively, which is exactly what interleaving avoids),
  //     with each timed sample spanning four rounds so one sample is
  //     long enough (~18 ms) to average out time-slice granularity;
  //   * the differential is metrics-vs-ping: on one core any polling
  //     client steals CPU slices whatever verb it sends, so base-vs-obs
  //     prices generic time-slicing, while the ping pair isolates what
  //     the registry design controls.  Even so the differential is
  //     corroboration only — the headline `scrape_overhead_pct` comes
  //     from the direct per-scrape cost measurement below.
  constexpr int kObsRounds = 10;       // recorded interleaved samples/arm
  constexpr int kRoundsPerSample = 4;  // c8d4 rounds inside one sample
  struct ObsArm {
    const char* name;
    const char* verb;  // nullptr: no ninth connection
    const char* note;
    double min_ns = std::numeric_limits<double>::infinity();
    std::uint64_t polls = 0;
  };
  ObsArm arms[] = {
      {"net_c8d4_base", nullptr, "(interleaved unobserved baseline)"},
      {"net_c8d4_ping", "ping", "(ninth conn polling ping)"},
      {"net_c8d4_obs", "metrics", "(continuous metrics scrape)"},
  };
  for (int round = 0; round <= kObsRounds; ++round) {  // round 0 warms up
    for (ObsArm& arm : arms) {
      std::atomic<bool> stop_poll{false};
      std::atomic<bool> poll_ready{arm.verb == nullptr};
      std::thread poller;
      if (arm.verb) {
        poller = std::thread([&] {
          net::Client poll(srv.port());
          while (!stop_poll.load(std::memory_order_acquire)) {
            if (poll.request(arm.verb).empty()) break;  // server gone
            poll_ready.store(true, std::memory_order_release);
            ++arm.polls;  // poller-only write; read after join()
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        });
        while (!poll_ready.load(std::memory_order_acquire))
          std::this_thread::yield();  // clock starts with polling live
      }
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kRoundsPerSample; ++i) spikes = pool.round(8, 4);
      const auto t1 = std::chrono::steady_clock::now();
      if (poller.joinable()) {
        stop_poll.store(true, std::memory_order_release);
        poller.join();
      }
      if (spikes == 0) std::printf("  WARNING: round produced no spikes\n");
      const double ns = static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count());
      if (round > 0 && ns < arm.min_ns) arm.min_ns = ns;
    }
  }
  constexpr int kSessionsPerSample = kSessionsPerRound * kRoundsPerSample;
  auto arm_rate = [&](const ObsArm& arm) {
    return arm.min_ns > 0.0 ? 1e9 * kSessionsPerSample / arm.min_ns : 0.0;
  };
  for (const ObsArm& arm : arms) {
    std::printf("%-16s %10d %12.1f %14.0f  %s\n", arm.name,
                kSessionsPerSample, arm.min_ns / 1e6, arm_rate(arm),
                arm.note);
  }
  const double rate_base = arm_rate(arms[0]);
  const double rate_ping = arm_rate(arms[1]);
  const double rate_obs = arm_rate(arms[2]);
  const double scrape_diff_pct =
      rate_ping > 0.0 && rate_obs > 0.0
          ? (rate_ping / rate_obs - 1.0) * 100.0
          : 0.0;
  const double ninth_conn_overhead_pct =
      rate_base > 0.0 && rate_ping > 0.0
          ? (rate_base / rate_ping - 1.0) * 100.0
          : 0.0;
  std::printf("scrape overhead (differential), metrics vs ping control: "
              "%+.2f%% over %llu scrapes (%llu control pings; ninth "
              "connection vs unobserved: %+.2f%%)\n",
              scrape_diff_pct,
              static_cast<unsigned long long>(arms[2].polls),
              static_cast<unsigned long long>(arms[1].polls),
              ninth_conn_overhead_pct);

  // The headline number is measured *directly*, because the differential
  // above is at the mercy of single-core scheduler jitter (multi-ms
  // time-slice noise on a ~16 ms sample vs a sub-100 µs effect): the
  // marginal cost of one scrape is the mean-RTT delta between
  // back-to-back `metrics` and `ping` requests — same connection, same
  // framing, same syscalls, so the subtraction leaves exactly the
  // telemetry work (shard aggregation, histogram percentiles, response
  // formatting, and the bigger response on the wire).  Dividing by the
  // scrape cadence gives the fraction of one core a continuous scraper
  // consumes; min-of-5 means makes it robust to preemption bursts.
  constexpr int kCostReps = 512;
  constexpr int kCostBlocks = 5;
  constexpr double kScrapeCadenceNs = 1e6;  // the poller's ~1 ms cadence
  net::Client cost_client(srv.port());
  auto request_mean_ns = [&](const char* verb) {
    double best = std::numeric_limits<double>::infinity();
    for (int block = 0; block < kCostBlocks; ++block) {
      for (int i = 0; i < 32; ++i) (void)cost_client.request(verb);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kCostReps; ++i) (void)cost_client.request(verb);
      const auto t1 = std::chrono::steady_clock::now();
      const double mean =
          static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                  .count()) /
          kCostReps;
      best = std::min(best, mean);
    }
    return best;
  };
  const double ping_rtt_ns = request_mean_ns("ping");
  const double metrics_rtt_ns = request_mean_ns("metrics");
  const double scrape_cost_ns =
      std::max(0.0, metrics_rtt_ns - ping_rtt_ns);
  const double scrape_overhead_pct =
      100.0 * scrape_cost_ns / kScrapeCadenceNs;
  std::printf("per-scrape cost: %.0f ns (metrics rtt %.0f ns - ping rtt "
              "%.0f ns) -> %.2f%% of one core at 1 kHz scraping\n",
              scrape_cost_ns, metrics_rtt_ns, ping_rtt_ns,
              scrape_overhead_pct);

  // The wire-submitted-net column: the same lifecycles, but the client
  // *describes* the network (net block + open app=@) instead of naming a
  // built-in — grammar parse, validation, admission costing and compile
  // all join the timed path.  The delta against net_c<N>d<M> is what the
  // general-purpose front door costs.
  pool.round(2, 2, custom_net_batch);  // warm the describe->compile path
  double wirenet_c8d4 = 0.0;
  double wirenet_c1d1 = 0.0;
  for (const auto& [connections, depth] :
       std::vector<std::pair<int, int>>{{1, 1}, {8, 4}}) {
    char section[32];
    std::snprintf(section, sizeof section, "wirenet_c%dd%d", connections,
                  depth);
    h.run(section,
          [&, c = connections, d = depth] {
            spikes = pool.round(c, d, custom_net_batch);
          },
          kMinReps);
    const double ms = h.section_ms(section);
    const double rate = ms > 0.0 ? 1e3 * kSessionsPerRound / ms : 0.0;
    if (connections == 1) wirenet_c1d1 = rate;
    if (connections == 8) wirenet_c8d4 = rate;
    std::printf("%-16s %10d %12.1f %14.0f  (client-described net)\n",
                section, kSessionsPerRound, ms, rate);
    if (spikes == 0) std::printf("  WARNING: round produced no spikes\n");
  }

  std::vector<double> submit_ms;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const double ms = measure_submit_compile_ms(srv.port(), 9500 + i);
    if (ms >= 0.0) submit_ms.push_back(ms);
  }
  if (submit_ms.empty()) {
    // All probes failed: emit an impossible sentinel, not a perfect 0.00
    // that a trajectory consumer would read as a speedup.
    std::printf("WARNING: every submit-compile probe failed\n");
  }
  const double submit_p50 =
      submit_ms.empty() ? -1.0 : percentile(submit_ms, 0.50);
  const double submit_p99 =
      submit_ms.empty() ? -1.0 : percentile(submit_ms, 0.99);
  std::printf("net submission+compile (describe -> built, no run): "
              "p50=%.2f ms p99=%.2f ms over %zu probes\n",
              submit_p50, submit_p99, submit_ms.size());

  std::vector<double> ttfs;
  for (std::uint64_t i = 0; i < 20; ++i) {
    const double ms = measure_ttfs_ms(srv.port(), 9000 + i);
    if (ms >= 0.0) ttfs.push_back(ms);  // failed probes must not skew p50/p99
  }
  const double ttfs_p50 = percentile(ttfs, 0.50);
  const double ttfs_p99 = percentile(ttfs, 0.99);
  std::printf("time-to-first-spike over the socket: p50=%.2f ms "
              "p99=%.2f ms over %zu probes\n",
              ttfs_p50, ttfs_p99, ttfs.size());

  const auto net_stats = srv.stats();
  std::printf("transport: %llu frames in, %llu out, %llu batches, "
              "%llu connections accepted, %llu shed\n",
              static_cast<unsigned long long>(net_stats.frames_in),
              static_cast<unsigned long long>(net_stats.frames_out),
              static_cast<unsigned long long>(net_stats.batches),
              static_cast<unsigned long long>(net_stats.accepted),
              static_cast<unsigned long long>(net_stats.shed_slow +
                                              net_stats.shed_flood));

  h.metric("hw_threads", static_cast<double>(hw), "threads");
  h.metric("sessions_per_sec_embedded_c1", base_rate, "sessions/s");
  h.metric("sessions_per_sec_net_c8d4", rate_c8d4, "sessions/s");
  h.metric("sessions_per_sec_net_c8d4_base", rate_base, "sessions/s");
  h.metric("sessions_per_sec_net_c8d4_ping", rate_ping, "sessions/s");
  h.metric("sessions_per_sec_net_c8d4_obs", rate_obs, "sessions/s");
  h.metric("scrape_overhead_pct", scrape_overhead_pct, "%");
  h.metric("scrape_cost_ns", scrape_cost_ns, "ns");
  h.metric("scrape_diff_pct", scrape_diff_pct, "%");
  h.metric("ninth_conn_overhead_pct", ninth_conn_overhead_pct, "%");
  h.metric("sessions_per_sec_net_best", best_rate, "sessions/s");
  h.metric("net_vs_embedded_ratio",
           base_rate > 0.0 ? best_rate / base_rate : 0.0, "");
  h.metric("sessions_per_sec_wirenet_c1d1", wirenet_c1d1, "sessions/s");
  h.metric("sessions_per_sec_wirenet_c8d4", wirenet_c8d4, "sessions/s");
  h.metric("wirenet_vs_builtin_ratio",
           rate_c8d4 > 0.0 ? wirenet_c8d4 / rate_c8d4 : 0.0, "");
  h.metric("net_submit_compile_p50_ms", submit_p50, "ms");
  h.metric("net_submit_compile_p99_ms", submit_p99, "ms");
  h.metric("ttfs_p50_ms", ttfs_p50, "ms");
  h.metric("ttfs_p99_ms", ttfs_p99, "ms");
  h.metric("bio_ms_per_session",
           static_cast<double>(kBioPerSession) / kMillisecond, "ms");
  return h.finish();
}
