// sim_e12: the offline simulator.  bench_e12's network (12x12 chips x 4
// cores, 1 us link flight, 6k Poisson -> 18k LIF, 256 neurons/core) loaded
// onto the sharded engine (8 shards, threads = nproc) and run in 1 ms
// biological steps for the measured seconds.
//
// Output check: the spike stream of the first 10 ms must hash to the same
// value as a serial-engine run of the same seed over the same 10 ms,
// computed by this binary before anything is timed.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "map/placement.hpp"
#include "map/routing_gen.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "sim/sharded_simulator.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace spinn;

/// Biological time of one run-phase step; the first kBioStep of the run
/// is the stretch checked against the serial reference.
constexpr TimeNs kSimStep = kMillisecond;
constexpr std::size_t kCheckedSteps = kBioStep / kSimStep;
constexpr std::size_t kMinSteps = 2 * kCheckedSteps;
/// slo_frac's latency limit for one 1 ms step (250x slower than real time).
constexpr double kStepLimitMs = 250.0;

SystemConfig e12_config(std::uint64_t seed, bool sharded, unsigned threads) {
  SystemConfig cfg;
  cfg.machine.width = 12;
  cfg.machine.height = 12;
  cfg.machine.chip.num_cores = 4;
  cfg.machine.seed = seed;
  cfg.machine.chip.router.port.flight_ns = 1000;
  cfg.mapper.neurons_per_core = 256;
  if (sharded) {
    cfg.engine.kind = sim::EngineKind::Sharded;
    cfg.engine.shards = 8;
    cfg.engine.threads = threads;
  }
  return cfg;
}

const net::NetBuilder& e12_builder() {
  static const net::NetBuilder b = [] {
    net::NetBuilder nb;
    nb.poisson("noise", 6000, 30.0);
    nb.lif("exc", 18000);
    nb.project("noise", "exc", neural::Connector::fixed_probability(0.0045),
               neural::ValueDist::uniform(4.0, 8.0),
               neural::ValueDist::fixed(1.0));
    nb.project("exc", "exc", neural::Connector::fixed_probability(0.0005),
               neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0));
    return nb;
  }();
  return b;
}

std::uint64_t windows_of(System& sys) {
  const auto* sharded = dynamic_cast<sim::ShardedSimulator*>(&sys.engine());
  return sharded != nullptr ? sharded->windows_opened() : 0;
}

/// Serial reference: hash of the spike stream of the first kBioStep, plus
/// its wall time (the traced run's speedup base).
struct Reference {
  std::uint64_t hash = 0;
  std::size_t spikes = 0;
  double step_s = 0.0;
  bool ok = false;
};

Reference serial_reference(const Options& opt, const neural::Network& net) {
  Reference ref;
  System sys(e12_config(opt.seed, false, 1));
  if (!sys.load(net).ok) return ref;
  const auto t0 = Clock::now();
  sys.run(kBioStep);
  ref.step_s = seconds(t0, Clock::now());
  ref.hash = spike_hash(sys.spikes().events());
  ref.spikes = sys.spikes().count();
  ref.ok = true;
  return ref;
}

/// Consecutive steps grouped into windows of about one wall second; a
/// trailing window shorter than half a second is dropped.
std::vector<std::vector<double>> step_windows(
    const std::vector<double>& step_ms) {
  std::vector<std::vector<double>> out;
  std::vector<double> cur;
  double wall_ms = 0.0;
  for (const double ms : step_ms) {
    cur.push_back(ms);
    wall_ms += ms;
    if (wall_ms >= 1000.0) {
      out.push_back(std::move(cur));
      cur.clear();
      wall_ms = 0.0;
    }
  }
  if (wall_ms >= 500.0 || out.empty()) out.push_back(std::move(cur));
  return out;
}

}  // namespace

Result run_sim_e12(const Options& opt) {
  Result out;
  SpanRecorder rec;
  rec.enable(opt.trace);

  neural::Network net;
  std::string error;
  out.check(neural::build(e12_builder().description(), &net, &error),
            "e12 description does not build: " + error);
  if (!out.correct) return out;

  const Reference ref = serial_reference(opt, net);
  out.check(ref.ok, "serial reference failed to load");
  if (!out.correct) return out;

  // Set-up: System construction + load.
  const std::uint64_t lifecycle = rec.new_lifecycle();
  const auto setup_t0 = Clock::now();
  auto sys =
      std::make_unique<System>(e12_config(opt.seed, true, opt.threads));
  const auto load_t0 = Clock::now();
  const map::LoadReport report = sys->load(net);
  const auto setup_t1 = Clock::now();
  rec.add("core.construct", setup_t0, load_t0, 0, lifecycle);
  rec.add("map.load", load_t0, setup_t1, 0, lifecycle);
  const double construct_s = seconds(setup_t0, load_t0);
  const double load_s = seconds(load_t0, setup_t1);
  ++out.attempted;
  if (!report.ok) {
    ++out.failed;
    out.check(false, "sharded load failed: " + report.error);
    return out;
  }
  const std::uint64_t synapses = report.total_synapses;
  const std::uint64_t rows = report.total_rows;

  // Run phase: 1 ms steps until the measured seconds have passed.  The
  // first kCheckedSteps are checked against the serial reference.  Half
  // of a traced run's steps record their span, half do not: the
  // difference is the tracing overhead.
  const std::uint64_t events0 = sys->engine().executed();
  const std::uint64_t windows0 = windows_of(*sys);
  std::vector<double> step_ms;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  LatencyLog steps;
  std::size_t spikes = 0;
  const auto run_t0 = Clock::now();
  double checked_s = 0.0;  // sharded wall time of the checked stretch
  while (step_ms.size() < kMinSteps ||
         seconds(run_t0, Clock::now()) < opt.seconds) {
    const bool traced = opt.trace && step_ms.size() % 2 == 0;
    rec.enable(traced);
    const auto t0 = Clock::now();
    sys->run(kSimStep);
    const auto t1 = Clock::now();
    rec.add("sim.step", t0, t1, 0, lifecycle);
    rec.enable(opt.trace);
    const double ms = 1e3 * seconds(t0, t1);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    step_ms.push_back(ms);
    bool ok = true;
    if (step_ms.size() <= kCheckedSteps) checked_s += ms / 1e3;
    if (step_ms.size() == kCheckedSteps) {
      ok = spike_hash(sys->spikes().events()) == ref.hash;
      out.check(ok, "sharded spike stream differs from the serial reference");
    }
    if (step_ms.size() >= kCheckedSteps) {
      spikes += sys->spikes().count();
      sys->spikes().clear();  // keeps memory flat over a long run
    }
    ++out.attempted;
    if (ok) {
      steps.ok(ms);
    } else {
      ++out.failed;
      steps.fail();
    }
  }
  const auto run_t1 = Clock::now();
  const double run_s = seconds(run_t0, run_t1);
  const std::uint64_t events = sys->engine().executed() - events0;
  const std::uint64_t windows = windows_of(*sys) - windows0;
  sys.reset();
  const double workload_s = seconds(setup_t0, run_t1);

  out.notes["steps"] = std::to_string(step_ms.size());
  out.notes["synapses"] = std::to_string(synapses);
  out.notes["reference_spikes_10ms"] = std::to_string(ref.spikes);
  out.notes["step_limit_ms"] = std::to_string(kStepLimitMs);

  if (!opt.trace) {
    // Like the serve workloads, each figure is the median of its values
    // over ~1 s windows of consecutive steps.  The rate is that of the
    // window's median step: a host stall lengthens a few steps, which
    // lifecycle_p99_ms reports, without moving the rate.
    std::vector<double> rates;
    std::vector<double> p50;
    std::vector<double> p99;
    for (const std::vector<double>& w : step_windows(step_ms)) {
      p50.push_back(quantile(w, 0.50));
      p99.push_back(quantile(w, 0.99));
      rates.push_back(1e3 / p50.back());
    }
    const double bio_per_step_ms = kSimStep / 1e6;
    out.set("setup_s", construct_s + load_s, "s");
    out.set("bio_ms_per_wall_s", bio_per_step_ms * median(rates), "bio-ms/s",
            rates.size(), rel_iqr(rates));
    out.set("sessions_per_s", median(rates), "1/s", rates.size(),
            rel_iqr(rates));
    out.set("lifecycle_p50_ms", median(p50), "ms", p50.size(), rel_iqr(p50));
    out.set("lifecycle_p99_ms", median(p99), "ms", p99.size(), rel_iqr(p99));
    out.set("lifecycle_p99_ms_lo", median(p99), "ms", p99.size(),
            rel_iqr(p99));
    out.set("slo_frac", steps.slo_frac(kStepLimitMs), "fraction",
            steps.attempted());
    out.set("ok_frac", 1.0 - steps.fail_frac(), "fraction",
            steps.attempted());
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
  }

  // Per-layer figures of the traced run.
  out.set("core.construct_s", construct_s, "s");
  out.set("map.load_s", load_s, "s");
  out.set("map.synapses", static_cast<double>(synapses), "count");
  out.set("map.rows", static_cast<double>(rows), "count");
  out.set("map.synapses_per_s", static_cast<double>(synapses) / load_s,
          "1/s");
  {
    // Place and route alone, on a machine of the same shape (neither
    // mutates it), outside the workload's own span.
    System probe(e12_config(opt.seed, false, 1));
    const map::MapperConfig mapper = e12_config(opt.seed, true, 1).mapper;
    const auto t0 = Clock::now();
    const map::PlacementResult placement =
        map::place(net, probe.machine(), mapper);
    const auto t1 = Clock::now();
    (void)map::generate_routing(net, placement, probe.machine().topology(),
                                mapper);
    const auto t2 = Clock::now();
    rec.add("map.place", t0, t1, 0, 0);
    rec.add("map.route", t1, t2, 0, 0);
    out.set("map.place_s", seconds(t0, t1), "s");
    out.set("map.route_s", seconds(t1, t2), "s");
    out.set("map.elaborate_s", load_s - seconds(t0, t2), "s");
  }
  out.set("sim.run_s", run_s, "s", step_ms.size());
  out.set("sim.events", static_cast<double>(events), "count");
  out.set("sim.events_per_s", static_cast<double>(events) / run_s, "1/s");
  out.set("sim.windows", static_cast<double>(windows), "count");
  out.set("sim.us_per_window",
          windows > 0 ? 1e6 * run_s / static_cast<double>(windows) : 0.0,
          "us");
  out.set("sim.speedup_vs_serial", ref.step_s / checked_s, "x");
  out.set("neural.spikes", static_cast<double>(spikes), "count");
  out.set("bench.trace_overhead_frac",
          median(traced_ms) / median(untraced_ms) - 1.0, "fraction");
  out.set("bench.gen_lag_p99_ms", 0.0, "ms");  // closed loop: no schedule

  probe_description(e12_builder().lines(), 5, rec, out);
  probe_wirenet_load(50, rec, out);
  probe_idle_chain_server(opt, rec, out);
  // Set after the serving probe, which reports its own attribution.
  out.set("bench.unattributed_frac",
          1.0 - (construct_s + load_s + run_s) / workload_s, "fraction");
  if (!opt.trace_out.empty()) {
    out.check(rec.write_chrome_json(opt.trace_out),
              "cannot write " + opt.trace_out);
  }
  return out;
}

}  // namespace perfbench
