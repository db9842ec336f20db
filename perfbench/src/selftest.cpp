// perfbench --selftest: checks of the benchmark's own logic, run by
// perfbench/test_perfbench.py.  Exit code 0 when every check holds.
#include <cstdio>

#include "common.hpp"
#include "loadgen.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "server/spec.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

using Events = std::vector<spinn::neural::SpikeRecorder::Event>;

void spike_hash_is_stable() {
  spinn::server::SessionSpec spec;
  spec.app = "chain";
  spec.seed = 7;
  const Events a = spinn::server::run_standalone(spec, kBioStep);
  const Events b = spinn::server::run_standalone(spec, kBioStep);
  expect(!a.empty(), "hash: the chain app spikes within 10 ms");
  expect(spike_hash(a) == spike_hash(a), "hash: same stream, same hash");
  expect(spike_hash(a) == spike_hash(b),
         "hash: two runs of one seed hash alike");
  Events swapped = a;
  if (swapped.size() >= 2) std::swap(swapped.front(), swapped.back());
  expect(swapped.size() < 2 || spike_hash(swapped) != spike_hash(a),
         "hash: order matters");
  Events shifted = a;
  shifted.back().time += 1;
  expect(spike_hash(shifted) != spike_hash(a), "hash: a time matters");
  expect(spike_hash({}) != spike_hash({Events::value_type{}}),
         "hash: the event count matters");
}

void failures_count_as_misses() {
  LatencyLog log;
  log.ok(5.0);
  log.ok(50.0);
  log.fail();
  expect(log.attempted() == 3 && log.failed() == 1,
         "log: a failure is attempted and failed");
  expect(log.slo_frac(20.0) == 1.0 / 3.0,
         "slo_frac: within-limit successes over all attempted");
  expect(log.slo_frac(1e9) == 2.0 / 3.0,
         "slo_frac: a failure misses even an unbounded limit");
  expect(log.fail_frac() == 1.0 / 3.0, "fail_frac: failed over attempted");
  LatencyLog none;
  none.fail();
  expect(none.slo_frac(1e9) == 0.0 && none.fail_frac() == 1.0,
         "slo_frac/fail_frac: all failed");
}

void replies_are_checked(const Refs& refs) {
  spinn::server::SessionSpec spec = spec_for(refs, refs.seeds[0]);
  const std::string spikes = spinn::net::format_spikes(
      spinn::server::run_standalone(spec, kBioStep));
  const std::string good = "ok id=1\nok\nok\n" + spikes + "\nok";
  expect(reply_ok(refs, 0, good), "reply: the reference stream passes");
  expect(!reply_ok(refs, 0, "ok id=1\nok\nerr busy\n" + spikes + "\nok"),
         "reply: an err block fails");
  expect(!reply_ok(refs, 0, "ok id=1\nok\nok\nspikes 0\nok") ||
             spikes == "spikes 0",
         "reply: a different stream fails");
  expect(!reply_ok(refs, 0, ""), "reply: a dropped connection fails");
}

void wire_failures_are_misses(std::uint16_t port, const Refs& refs) {
  Refs wrong = refs;
  for (auto& h : wrong.hashes) h ^= 1;  // no reply can match
  WireConn conn(port);
  SpanRecorder off;
  Load load;
  load.depth = 2;
  load.secs = 0.1;
  const Phase ph = drive({&conn}, wrong, load, 1, off);
  expect(ph.log.attempted() > 0 && ph.log.failed() == ph.log.attempted(),
         "drive: mismatched streams are failures");
  expect(ph.log.slo_frac(1e9) == 0.0 && ph.in_window == 0,
         "drive: failures are slo misses and not throughput");
}

void open_loop_latency_from_schedule(std::uint16_t port, const Refs& refs) {
  // Far more arrivals than one connection can carry: the generator falls
  // behind its schedule, and each latency must include how late it sent.
  WireConn conn(port);
  SpanRecorder off;
  Load load;
  load.rate = 20000.0;
  load.secs = 0.1;
  const Phase ph = drive({&conn}, refs, load, 2, off);
  expect(ph.log.failed() == 0, "open loop: every lifecycle correct");
  expect(quantile(ph.lag_ms, 0.5) > 5.0,
         "open loop: the overloaded generator ran late");
  bool dominated = true;
  for (const double q : {0.1, 0.5, 0.9, 0.99}) {
    dominated = dominated &&
                quantile(ph.log.samples(), q) >= quantile(ph.lag_ms, q);
  }
  expect(dominated,
         "open loop: latency counts from the scheduled send time");
}

}  // namespace

int selftest() {
  spike_hash_is_stable();
  failures_count_as_misses();
  spinn::net::NetConfig cfg;
  cfg.session.max_sessions = kMaxInflightPerConn;
  Result scratch;
  const Refs refs = make_refs(Kind::Chain, 3, cfg.session, scratch);
  expect(scratch.correct, "references: computed");
  replies_are_checked(refs);
  {
    spinn::net::NetServer srv(cfg);
    wire_failures_are_misses(srv.port(), refs);
    open_loop_latency_from_schedule(srv.port(), refs);
  }
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
