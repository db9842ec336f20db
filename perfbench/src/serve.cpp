// serve_chain and serve_wirenet: the session server at the wire.
//
// Both run one in-process net::NetServer with the default NetConfig except
// session.max_sessions, sized to the most sessions the generator can have
// in flight.  Load comes from nproc-1 connections, one generator thread
// each; serve_chain adds a scraper connection polling `metrics` at 1 kHz.
//
//   serve_chain    built-in `chain` lifecycles, one batch frame each:
//                  open-loop Poisson arrivals at kLoRate then kHiRate,
//                  then a closed-loop saturation phase at depth 4.
//   serve_wirenet  bench_e14's client-described net (`net ... end` +
//                  `open app=@`) lifecycles, closed loop at depth 1.
//
// Output check: every lifecycle's drained stream must hash to the
// embedded-API stream of its seed, computed on a separate embedded server
// before anything is timed.  An `err` block, a dropped connection, a
// mismatch or a timeout is a failed lifecycle.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "loadgen.hpp"
#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace spinn;

// Fixed workload parameters.  The rates are absolute: about 30% and 70% of
// the ~5k lifecycles/s the settled server sustains open loop on a 4-vCPU
// host (README.md, "Workloads").  Retuning them changes the workload.
constexpr double kLoRate = 1500.0;  // lifecycles/s, serve_chain lo phase
constexpr double kHiRate = 3500.0;  // lifecycles/s, serve_chain hi phase
constexpr int kSaturationDepth = 4;
/// Closed-loop lifecycles answered before set-up ends.  A fresh process
/// serves chain lifecycles fast for its first ~12k and then settles
/// (README.md, "Steady state"); set-up runs past that point so the timed
/// phases see only the steady state, and pays for it.
constexpr int kWarmupChain = 16000;
constexpr int kWarmupWirenet = 10000;
/// slo_frac latency limits, client-seen.
constexpr double kChainLimitMs = 100.0;
constexpr double kWirenetLimitMs = 100.0;
constexpr double kScrapeHz = 1000.0;

/// The scraper: one connection requesting `metrics` at kScrapeHz while
/// running.  Each scrape is an attempted operation.
class Scraper {
 public:
  explicit Scraper(std::uint16_t port) : client_(port) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void start() {
    stop_.store(false);
    thread_ = std::thread([this] {
      const auto period = std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(1.0 / kScrapeHz));
      auto next = Clock::now();
      while (!stop_.load(std::memory_order_relaxed)) {
        const std::string reply = client_.request("metrics");
        ++attempted_;
        if (reply.empty() || reply.rfind("err", 0) == 0) {
          ++failed_;
          if (reply.empty()) return;  // connection lost
        }
        next = std::max(next + period, Clock::now());
        std::this_thread::sleep_until(next);
      }
    });
  }
  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  net::Client client_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::uint64_t attempted_ = 0;  // written by the scraper thread only
  std::uint64_t failed_ = 0;
};

/// Samples the session scheduler's queue depth from stats() at 1 kHz.
class DepthSampler {
 public:
  explicit DepthSampler(server::SessionServer& srv)
      : thread_([this, &srv] {
          while (!stop_.load(std::memory_order_relaxed)) {
            max_ = std::max(max_, srv.stats().queue_depth);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~DepthSampler() { stop(); }
  DepthSampler(const DepthSampler&) = delete;
  DepthSampler& operator=(const DepthSampler&) = delete;
  std::size_t stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return max_;
  }

 private:
  std::atomic<bool> stop_{false};
  std::size_t max_ = 0;  // written by the sampler thread only
  std::thread thread_;
};

std::size_t load_conns(const Options& opt) {
  return std::max(1u, opt.threads - 1);
}

net::NetConfig server_config(const Options& opt) {
  net::NetConfig cfg;
  cfg.session.max_sessions = load_conns(opt) * kMaxInflightPerConn;
  return cfg;
}

/// A server under load: the server, its load connections and (serve_chain)
/// its scraper.  Members destroy in reverse: clients before the server.
struct Served {
  std::unique_ptr<net::NetServer> srv;
  std::vector<std::unique_ptr<WireConn>> owned;
  std::vector<WireConn*> conns;
  std::unique_ptr<Scraper> scraper;

  void reset() {
    scraper.reset();
    conns.clear();
    owned.clear();
    srv.reset();
  }
};

/// Set-up, timed: construct the server, answer one lifecycle on every
/// connection (the engine pool fills), then `warmup` closed-loop
/// lifecycles at saturation depth.  Returns the seconds it took.
double set_up(Served& s, const Options& opt, const Refs& refs, int warmup,
              bool with_scraper, Result& out) {
  SpanRecorder off;
  s.reset();
  const auto t0 = Clock::now();
  s.srv = std::make_unique<net::NetServer>(server_config(opt));
  for (std::size_t i = 0; i < load_conns(opt); ++i) {
    s.owned.push_back(std::make_unique<WireConn>(s.srv->port()));
    s.conns.push_back(s.owned.back().get());
  }
  if (with_scraper) s.scraper = std::make_unique<Scraper>(s.srv->port());
  Load first;
  first.depth = 1;
  first.secs = kTimeoutS;
  first.quota = 1;
  Phase ph = drive(s.conns, refs, first, opt.seed, off);
  Load warm;
  warm.depth = kSaturationDepth;
  warm.secs = 60.0;
  warm.quota = static_cast<std::uint64_t>(warmup) / s.conns.size();
  ph.log.merge(drive(s.conns, refs, warm, opt.seed + 1, off).log);
  const double secs = seconds(t0, Clock::now());
  out.attempted += ph.log.attempted();
  out.failed += ph.log.failed();
  return secs;
}

/// Adds a phase's lifecycles to the run's operation counts.
void count(Result& out, const Phase& ph) {
  out.attempted += ph.log.attempted();
  out.failed += ph.log.failed();
}

Load timed(double rate, std::size_t depth, double secs) {
  Load l;
  l.rate = rate;
  l.depth = depth;
  l.secs = secs;
  return l;
}

/// Median of one embedded-API figure over `times`, in microseconds.
double median_us(const std::vector<EmbeddedTimes>& times,
                 double EmbeddedTimes::*field) {
  std::vector<double> v;
  for (const auto& t : times) v.push_back(1e6 * (t.*field));
  return median(v);
}

/// Traced-run probes of the serving layers on an idle server: embedded
/// lifecycles (server.*), ping and metrics round trips (net.ping_rtt_us,
/// obs.scrape_us) and one-connection depth-1 wire lifecycles.  Fills the
/// derived net.transport_us and bench.unattributed_frac; `extra_us` is
/// work the wire lifecycle does that the embedded one skips (the server's
/// parse of a described net).  Returns the idle wire lifecycle p50, ms.
double probe_idle_serving(Served& s, const Refs& refs, const Options& opt,
                          double extra_us, SpanRecorder& rec, Result& out) {
  constexpr int kRounds = 3;
  constexpr int kPerRound = 100;
  server::SessionServer& srv = s.srv->sessions();
  std::vector<EmbeddedTimes> split;
  std::vector<double> batch_us;  // embedded lifecycles in the wire's order
  LatencyLog wire;
  net::NetStats wire_stats{};
  // Rounds interleave the three kinds, so a slow spell of the host lands
  // on all of them alike.
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 2 * kPerRound; ++i) {
      const std::size_t index =
          static_cast<std::size_t>(i / 2) % refs.seeds.size();
      const EmbeddedTimes t = embedded_lifecycle(
          srv, spec_for(refs, refs.seeds[index]), rec, i % 2 == 0);
      out.check(t.ok && t.hash == refs.hashes[index],
                "embedded lifecycle differs from its reference");
      if (i % 2 == 0) {
        split.push_back(t);
      } else {
        batch_us.push_back(1e6 * t.total_s());
      }
    }
    const net::NetStats before = s.srv->stats();
    Load idle;
    idle.depth = 1;
    idle.secs = 60.0;
    idle.quota = kPerRound;
    const Phase ph = drive({s.conns.front()}, refs, idle,
                           opt.seed + 7 + static_cast<std::uint64_t>(round),
                           rec);
    const net::NetStats after = s.srv->stats();
    count(out, ph);
    wire.merge(ph.log);
    wire_stats.frames_in += after.frames_in - before.frames_in;
    wire_stats.frames_out += after.frames_out - before.frames_out;
    wire_stats.bytes_in += after.bytes_in - before.bytes_in;
    wire_stats.bytes_out += after.bytes_out - before.bytes_out;
  }
  const std::uint64_t reps = split.size();
  out.set("server.open_us", median_us(split, &EmbeddedTimes::open_s), "us",
          reps);
  out.set("server.build_us", median_us(split, &EmbeddedTimes::build_s), "us",
          reps);
  out.set("server.run_us", median_us(split, &EmbeddedTimes::run_s), "us",
          reps);
  out.set("server.drain_us", median_us(split, &EmbeddedTimes::drain_s), "us",
          reps);
  out.set("server.close_us", median_us(split, &EmbeddedTimes::close_s), "us",
          reps);

  net::Client ctl(s.srv->port());
  auto rtt_us = [&](const char* verb) {
    std::vector<double> v;
    for (int i = 0; i < kRounds * kPerRound; ++i) {
      const auto t0 = Clock::now();
      const std::string reply = ctl.request(verb);
      const auto t1 = Clock::now();
      rec.add(verb, t0, t1, 0, 0);
      out.check(!reply.empty() && reply.rfind("err", 0) != 0,
                std::string(verb) + " failed");
      v.push_back(1e6 * seconds(t0, t1));
    }
    return median(v);
  };
  const double ping_us = rtt_us("ping");
  const double metrics_us = rtt_us("metrics");
  out.set("net.ping_rtt_us", ping_us, "us", reps);
  out.set("obs.scrape_us", metrics_us - ping_us, "us", reps);

  const double n = static_cast<double>(wire.samples().size());
  out.set("net.frames_per_lifecycle",
          static_cast<double>(wire_stats.frames_in + wire_stats.frames_out) /
              n,
          "count");
  out.set("net.bytes_per_lifecycle",
          static_cast<double>(wire_stats.bytes_in + wire_stats.bytes_out) / n,
          "B");
  const double wire_us = 1e3 * wire.p(0.5);
  const double emb_us = median(batch_us);
  out.set("net.transport_us", wire_us - emb_us, "us", reps);
  out.set("bench.unattributed_frac",
          (wire_us - emb_us - ping_us - extra_us) / wire_us, "fraction",
          reps);
  out.notes["idle_wire_lifecycle_us"] = std::to_string(wire_us);
  out.notes["idle_embedded_lifecycle_us"] = std::to_string(emb_us);
  return wire.p(0.5);
}

/// Server-wide counters at the end of a traced run.
void server_counters(Served& s, Result& out) {
  const server::ServerStats st = s.srv->sessions().stats();
  const double acquired =
      static_cast<double>(st.engines.created + st.engines.reused);
  out.set("server.engine_reuse_frac",
          acquired > 0 ? static_cast<double>(st.engines.reused) / acquired
                       : 0.0,
          "fraction");
  out.set("server.rejected", static_cast<double>(st.rejected), "count");
  const net::NetStats ns = s.srv->stats();
  out.set("net.shed", static_cast<double>(ns.shed_slow + ns.shed_flood),
          "count");
}

/// sim.* of one lifecycle's network on the serial engine the sessions
/// use: a standalone 10 ms run, median of `reps`.
void probe_session_sim(const Refs& refs, int reps, SpanRecorder& rec,
                       Result& out) {
  const server::SessionSpec spec = spec_for(refs, refs.seeds.front());
  const neural::Network net = server::build_network(spec);
  std::vector<double> run_s;
  std::uint64_t events = 0;
  std::size_t spikes = 0;
  for (int i = 0; i < reps; ++i) {
    System sys(server::system_config(spec));
    out.check(sys.load(net).ok, "session network failed to load");
    const std::uint64_t e0 = sys.engine().executed();
    const auto t0 = Clock::now();
    sys.run(kBioStep);
    const auto t1 = Clock::now();
    rec.add("sim.run", t0, t1, 0, 0);
    run_s.push_back(seconds(t0, t1));
    events = sys.engine().executed() - e0;
    spikes = sys.spikes().count();
  }
  const double run = median(run_s);
  out.set("sim.run_s", run, "s", run_s.size());
  out.set("sim.events", static_cast<double>(events), "count");
  out.set("sim.events_per_s", static_cast<double>(events) / run, "1/s");
  out.set("sim.windows", 0.0, "count");  // serial engine: no windows
  out.set("sim.us_per_window", 0.0, "us");
  out.set("sim.speedup_vs_serial", 1.0, "x");
  out.set("neural.spikes", static_cast<double>(spikes), "count");
}

std::vector<std::string> description_lines(const Refs& refs) {
  return refs.kind == Kind::Wirenet
             ? wirenet_lines()
             : net::encode_net(server::app_description("chain"));
}

/// Length of one measurement window: every serve figure is the median of
/// its per-window values, so a burst of host noise moves one window, not
/// the figure.
constexpr double kWindowS = 1.0;

/// Runs `load` for `secs` as consecutive windows of about kWindowS.
std::vector<Phase> windows(const std::vector<WireConn*>& conns,
                           const Refs& refs, Load load, double secs,
                           std::uint64_t seed) {
  SpanRecorder off;
  const int n = static_cast<int>(std::max(1.0, std::round(secs / kWindowS)));
  load.secs = secs / n;
  std::vector<Phase> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(
        drive(conns, refs, load, seed + static_cast<std::uint64_t>(i), off));
  }
  return out;
}

Phase merged(const std::vector<Phase>& phases) {
  Phase all;
  for (const Phase& p : phases) {
    all.log.merge(p.log);
    all.in_window += p.in_window;
    all.window_s += p.window_s;
    all.lag_ms.insert(all.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  return all;
}

template <typename Fn>
std::vector<double> per_window(const std::vector<Phase>& phases, Fn fn) {
  std::vector<double> out;
  for (const Phase& p : phases) out.push_back(fn(p));
  return out;
}

Result run_serve(const Options& opt, Kind kind) {
  Result out;
  SpanRecorder rec;
  const bool chain = kind == Kind::Chain;
  const Refs refs = make_refs(kind, opt.seed, server_config(opt).session, out);
  if (!out.correct) return out;
  const int warmup = chain ? kWarmupChain : kWarmupWirenet;

  Served s;
  const double setup_s = set_up(s, opt, refs, warmup, chain, out);
  out.notes["load_connections"] = std::to_string(s.conns.size());

  if (!opt.trace) {
    // serve_chain: open loop at kLoRate, then kHiRate, then the closed-loop
    // saturation phase ("main"), under the scraper.  serve_wirenet: one
    // connection at depth 1 ("lo"), then every connection ("main").
    std::vector<Phase> lo;
    std::vector<Phase> hi;
    std::vector<Phase> main;
    if (chain) {
      s.scraper->start();
      lo = windows(s.conns, refs, timed(kLoRate, 1, 0), 0.2 * opt.seconds,
                   opt.seed + 100);
      hi = windows(s.conns, refs, timed(kHiRate, 1, 0), 0.3 * opt.seconds,
                   opt.seed + 200);
      main = windows(s.conns, refs, timed(0, kSaturationDepth, 0),
                     0.5 * opt.seconds, opt.seed + 300);
      s.scraper->stop();
      out.attempted += s.scraper->attempted();
      out.failed += s.scraper->failed();
      out.notes["scrapes"] = std::to_string(s.scraper->attempted());
    } else {
      lo = windows({s.conns.front()}, refs, timed(0, 1, 0),
                   0.2 * opt.seconds, opt.seed + 100);
      main = windows(s.conns, refs, timed(0, 1, 0), 0.8 * opt.seconds,
                     opt.seed + 300);
    }
    for (const auto* phases : {&lo, &hi, &main}) {
      for (const Phase& ph : *phases) count(out, ph);
    }
    const double limit = chain ? kChainLimitMs : kWirenetLimitMs;
    const Phase slo_phase = merged(chain ? hi : main);
    auto window_q = [](const std::vector<Phase>& phases, double q) {
      return per_window(phases, [q](const Phase& p) { return p.log.p(q); });
    };
    const std::vector<double> rates =
        per_window(main, [](const Phase& p) { return p.rate(); });
    const std::vector<double> p50 = window_q(main, 0.50);
    const std::vector<double> p99 = window_q(main, 0.99);
    const std::vector<double> p99_lo = window_q(lo, 0.99);
    out.set("setup_s", setup_s, "s");
    out.set("sessions_per_s", median(rates), "1/s", rates.size(),
            rel_iqr(rates));
    out.set("bio_ms_per_wall_s", median(rates) * (kBioStep / 1e6),
            "bio-ms/s", rates.size(), rel_iqr(rates));
    out.set("lifecycle_p50_ms", median(p50), "ms", p50.size(), rel_iqr(p50));
    out.set("lifecycle_p99_ms", median(p99), "ms", p99.size(), rel_iqr(p99));
    out.set("lifecycle_p99_ms_lo", median(p99_lo), "ms", p99_lo.size(),
            rel_iqr(p99_lo));
    out.set("slo_frac", slo_phase.log.slo_frac(limit), "fraction",
            slo_phase.log.attempted());
    out.set("ok_frac",
            1.0 - static_cast<double>(out.failed) /
                      static_cast<double>(out.attempted),
            "fraction", out.attempted);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (chain) {
      // The open-loop latencies, reported beside the gated figures.
      const std::vector<double> hi_p50 = window_q(hi, 0.50);
      const std::vector<double> hi_p99 = window_q(hi, 0.99);
      out.set("open_hi_p50_ms", median(hi_p50), "ms", hi_p50.size(),
              rel_iqr(hi_p50));
      out.set("open_hi_p99_ms", median(hi_p99), "ms", hi_p99.size(),
              rel_iqr(hi_p99));
      out.set("open_hi_gen_lag_p99_ms", quantile(slo_phase.lag_ms, 0.99),
              "ms", slo_phase.lag_ms.size());
    }
    out.notes["slo_limit_ms"] = std::to_string(limit);
    s.reset();
    return out;
  }

  // Traced run: idle layer probes first, then the loaded phase, then the
  // tracing-overhead comparison.
  rec.enable(true);
  const std::vector<std::string> lines = description_lines(refs);
  probe_description(lines, 300, rec, out);
  const double parse_us = chain ? 0.0 : out.metrics["neural.parse_us"].value;
  const double idle_ms = probe_idle_serving(s, refs, opt, parse_us, rec, out);
  {
    const server::SessionSpec spec = spec_for(refs, refs.seeds.front());
    probe_map(server::system_config(spec), server::build_network(spec), 100,
              rec, out);
  }
  probe_session_sim(refs, 50, rec, out);
  probe_wirenet_load(50, rec, out);

  Phase loaded;
  {
    DepthSampler sampler(s.srv->sessions());
    if (chain) s.scraper->start();
    loaded = drive(s.conns, refs,
                   chain ? timed(kHiRate, 1, 0.4 * opt.seconds)
                         : timed(0, 1, 0.4 * opt.seconds),
                   opt.seed + 12, rec);
    if (chain) s.scraper->stop();
    out.set("server.queue_depth_max", static_cast<double>(sampler.stop()),
            "count");
  }
  count(out, loaded);
  out.set("server.queue_wait_ms", loaded.log.p(0.5) - idle_ms, "ms",
          loaded.log.samples().size());
  out.set("bench.gen_lag_p99_ms", quantile(loaded.lag_ms, 0.99), "ms",
          loaded.lag_ms.size());

  // Same closed-loop load in alternating windows with and without spans.
  std::vector<double> traced_rate;
  std::vector<double> untraced_rate;
  for (int w = 0; w < 6; ++w) {
    const bool on = w % 2 == 0;
    rec.enable(on);
    const Phase ph =
        drive(s.conns, refs,
              timed(0, chain ? kSaturationDepth : 1, 0.05 * opt.seconds),
              opt.seed + 20 + static_cast<std::uint64_t>(w), rec);
    count(out, ph);
    (on ? traced_rate : untraced_rate).push_back(ph.rate());
  }
  rec.enable(true);
  out.set("bench.trace_overhead_frac",
          1.0 - median(traced_rate) / median(untraced_rate), "fraction", 3);
  server_counters(s, out);
  s.reset();
  if (!opt.trace_out.empty()) {
    out.check(rec.write_chrome_json(opt.trace_out),
              "cannot write " + opt.trace_out);
  }
  return out;
}

}  // namespace

Result run_serve_chain(const Options& opt) {
  return run_serve(opt, Kind::Chain);
}

Result run_serve_wirenet(const Options& opt) {
  return run_serve(opt, Kind::Wirenet);
}

void probe_idle_chain_server(const Options& opt, SpanRecorder& rec,
                             Result& out) {
  const Refs refs =
      make_refs(Kind::Chain, opt.seed, server_config(opt).session, out);
  Served s;
  set_up(s, opt, refs, kWarmupChain, false, out);
  probe_idle_serving(s, refs, opt, 0.0, rec, out);
  server_counters(s, out);
  // No load phase on this workload: nothing queues.
  out.set("server.queue_wait_ms", 0.0, "ms");
  out.set("server.queue_depth_max", 0.0, "count");
  s.reset();
}

void probe_description(const std::vector<std::string>& lines, int reps,
                       SpanRecorder& rec, Result& out) {
  std::vector<double> parse_us;
  std::vector<double> validate_us;
  std::vector<double> build_us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    net::NetParser parser;
    net::NetParser::Status status = net::NetParser::Status::More;
    for (std::size_t l = 1; l < lines.size(); ++l) {
      status = parser.feed(lines[l]);
    }
    const auto desc = parser.take();
    const auto t1 = Clock::now();
    neural::NameMap names;
    std::string error;
    const bool valid = neural::validate(*desc, &names, &error);
    const auto t2 = Clock::now();
    neural::Network net;
    const bool built = neural::build(*desc, names, &net, &error);
    const auto t3 = Clock::now();
    out.check(status == net::NetParser::Status::Done && valid && built,
              "description probe failed: " + error);
    rec.add("neural.parse", t0, t1, 0, 0);
    rec.add("neural.validate", t1, t2, 0, 0);
    rec.add("neural.build", t2, t3, 0, 0);
    parse_us.push_back(1e6 * seconds(t0, t1));
    validate_us.push_back(1e6 * seconds(t1, t2));
    build_us.push_back(1e6 * seconds(t2, t3));
  }
  out.set("neural.parse_us", median(parse_us), "us", parse_us.size());
  out.set("neural.validate_us", median(validate_us), "us", validate_us.size());
  out.set("neural.build_us", median(build_us), "us", build_us.size());
}

void probe_map(const SystemConfig& cfg, const neural::Network& net, int reps,
               SpanRecorder& rec, Result& out) {
  std::vector<double> construct_s;
  std::vector<double> place_s;
  std::vector<double> route_s;
  std::vector<double> load_s;
  std::uint64_t synapses = 0;
  std::uint64_t rows = 0;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    System sys(cfg);
    const auto t1 = Clock::now();
    const map::PlacementResult placement =
        map::place(net, sys.machine(), cfg.mapper);
    const auto t2 = Clock::now();
    (void)map::generate_routing(net, placement, sys.machine().topology(),
                                cfg.mapper);
    const auto t3 = Clock::now();
    const map::LoadReport report = sys.load(net);
    const auto t4 = Clock::now();
    out.check(report.ok, "probe load failed: " + report.error);
    out.check(i == 0 || (report.total_synapses == synapses &&
                         report.total_rows == rows),
              "repeated loads elaborated different synapse counts");
    synapses = report.total_synapses;
    rows = report.total_rows;
    rec.add("core.construct", t0, t1, 0, 0);
    rec.add("map.place", t1, t2, 0, 0);
    rec.add("map.route", t2, t3, 0, 0);
    rec.add("map.load", t3, t4, 0, 0);
    construct_s.push_back(seconds(t0, t1));
    place_s.push_back(seconds(t1, t2));
    route_s.push_back(seconds(t2, t3));
    load_s.push_back(seconds(t3, t4));
  }
  const double load = median(load_s);
  out.set("core.construct_s", median(construct_s), "s", construct_s.size());
  out.set("map.place_s", median(place_s), "s", place_s.size());
  out.set("map.route_s", median(route_s), "s", route_s.size());
  out.set("map.load_s", load, "s", load_s.size());
  out.set("map.elaborate_s", load - median(place_s) - median(route_s), "s");
  out.set("map.synapses", static_cast<double>(synapses), "count");
  out.set("map.rows", static_cast<double>(rows), "count");
  out.set("map.synapses_per_s", static_cast<double>(synapses) / load, "1/s");
}

void probe_wirenet_load(int reps, SpanRecorder& rec, Result& out) {
  const server::SessionSpec spec = spec_for(described(Kind::Wirenet), 1);
  const neural::Network net = server::build_network(spec);
  std::vector<double> load_us;
  for (int i = 0; i < reps; ++i) {
    System sys(server::system_config(spec));
    const auto t0 = Clock::now();
    const bool ok = sys.load(net).ok;
    const auto t1 = Clock::now();
    out.check(ok, "wirenet probe load failed");
    rec.add("map.load.wirenet", t0, t1, 0, 0);
    load_us.push_back(1e6 * seconds(t0, t1));
  }
  out.set("map.load_us", median(load_us), "us", load_us.size());
}

}  // namespace perfbench
