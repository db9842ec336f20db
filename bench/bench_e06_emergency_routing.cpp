// E6 — §5.3 / Fig. 8: hardware emergency routing around a failed or
// congested link.
//
// Paper claims: packets that should pass through an affected link are
// redirected "around the two other sides of one of the mesh triangles";
// transient congestion resolves by itself; a persistently blocked router
// never wedges — it drops after two programmable waits and informs the
// Monitor Processor, which "can recover the packet and re-issue it".
//
// Scenario: a steady multicast stream crosses the link (3,3)->E->(4,3) of an
// 8x8 torus.  Mid-run the link dies.  We compare delivery and latency with
// emergency routing enabled vs disabled, and show monitor-driven recovery
// of dropped packets.
#include <cstdio>
#include <memory>

#include "core/traffic.hpp"
#include "harness.hpp"
#include "mesh/machine.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace spinn;

struct RunResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t emergency = 0;
  std::uint64_t dropped = 0;
  std::uint64_t reinjected = 0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

RunResult run_case(bool emergency_enabled, bool monitor_reroutes,
                   double packets_per_tick) {
  sim::Simulator sim(11);
  mesh::MachineConfig mc;
  mc.width = 8;
  mc.height = 8;
  mc.chip.num_cores = 2;
  mc.chip.clock_drift_ppm_sigma = 0.0;
  mc.chip.router.emergency_routing_enabled = emergency_enabled;
  mesh::Machine m(sim, mc);

  // Path: (2,3) -> E -> (3,3) -> E -> (4,3) -> E -> (5,3), delivered there.
  const RoutingKey key = 0x40;
  m.chip_at({2, 3}).router().mc_table().add(
      {key, ~0u, router::Route::to_link(LinkDir::East)});
  m.chip_at({5, 3}).router().mc_table().add(
      {key, ~0u, router::Route::to_core(1)});
  // (3,3) and (4,3) default-route the straight line.

  obs::Histogram latency;  // ns
  auto probe = std::make_unique<core::LatencyProbe>(&latency);
  core::LatencyProbe* probe_ptr = probe.get();
  m.chip_at({5, 3}).core(1).load_program(std::move(probe));
  m.chip_at({5, 3}).core(1).start();

  core::TrafficSource::Config tc;
  tc.keys = {key};
  tc.packets_per_tick = packets_per_tick;
  auto source = std::make_unique<core::TrafficSource>(tc);
  core::TrafficSource* source_ptr = source.get();
  m.chip_at({2, 3}).core(1).load_program(std::move(source));
  m.chip_at({2, 3}).core(1).start();

  // Monitor recovery (§5.3): on the first drop, install a *permanent
  // rerouting around the failed link* — (3,3)->NE->(4,4)->S->(4,3)->E — and
  // re-issue every dropped packet.
  RunResult result;
  bool rerouted = false;
  m.chip_at({3, 3}).set_monitor_event_handler(
      [&, key](const router::RouterEvent& e) {
        if (e.type != router::RouterEventType::PacketDropped ||
            !monitor_reroutes) {
          return;
        }
        if (!rerouted) {
          rerouted = true;
          m.chip_at({3, 3}).router().mc_table().add(
              {key, ~0u, router::Route::to_link(LinkDir::NorthEast)});
          m.chip_at({4, 4}).router().mc_table().add(
              {key, ~0u, router::Route::to_link(LinkDir::South)});
          m.chip_at({4, 3}).router().mc_table().add(
              {key, ~0u, router::Route::to_link(LinkDir::East)});
        }
        ++result.reinjected;
        router::Packet p = e.packet;
        p.er = router::ErState::Normal;
        sim.after(50 * kMicrosecond, [&m, p] {
          m.chip_at({3, 3}).router().receive(p, std::nullopt);
        });
      });

  m.start_all_timers();
  sim.run_until(50 * kMillisecond);
  // Fail the middle link mid-run.
  m.fail_link({3, 3}, LinkDir::East);
  sim.run_until(150 * kMillisecond);
  m.stop_all_timers();
  sim.run_until(sim.now() + 5 * kMillisecond);

  const auto totals = m.fabric_totals();
  result.sent = source_ptr->sent();
  result.delivered = probe_ptr->received();
  result.emergency = totals.emergency_first_leg;
  result.dropped = totals.dropped;
  result.mean_latency_us = latency.mean() / 1000.0;
  result.p99_latency_us =
      static_cast<double>(latency.percentile(0.99)) / 1000.0;
  return result;
}

void print_row(const char* label, const RunResult& r) {
  std::printf("%-34s %8llu %10llu %11.1f%% %10llu %8llu %8llu %9.2f %9.2f\n",
              label, static_cast<unsigned long long>(r.sent),
              static_cast<unsigned long long>(r.delivered),
              r.sent ? 100.0 * static_cast<double>(r.delivered) /
                           static_cast<double>(r.sent)
                     : 0.0,
              static_cast<unsigned long long>(r.emergency),
              static_cast<unsigned long long>(r.dropped),
              static_cast<unsigned long long>(r.reinjected),
              r.mean_latency_us, r.p99_latency_us);
}

}  // namespace

int main(int argc, char** argv) {
  spinn::bench::Harness h("bench_e06_emergency_routing", argc, argv);
  std::printf("E6: emergency routing around a failed link (Fig. 8) — link "
              "(3,3)->(4,3) dies at t=50 ms of 150 ms\n\n");
  std::printf("%-34s %8s %10s %12s %10s %8s %8s %9s %9s\n", "configuration",
              "sent", "delivered", "delivery", "emergency", "dropped",
              "reinject", "lat(us)", "p99(us)");

  const double rate = 3.0;  // packets per 1 ms tick: lightly loaded
  RunResult er_on, er_off, er_off_monitor, er_on_monitor;
  h.run("er_on", [&] { er_on = run_case(true, false, rate); });
  h.run("er_off", [&] { er_off = run_case(false, false, rate); });
  h.run("er_off_monitor", [&] { er_off_monitor = run_case(false, true, rate); });
  h.run("er_on_monitor", [&] { er_on_monitor = run_case(true, true, rate); });

  print_row("emergency routing ON", er_on);
  print_row("emergency routing OFF", er_off);
  print_row("ER OFF + monitor reroute", er_off_monitor);
  print_row("ER ON  + monitor reroute", er_on_monitor);

  std::printf("\nWith ER on, packets detour the triangle (NE then S) and "
              "delivery stays ~100%%; with ER off the\nrouter honours its "
              "\"never persistently refuse\" rule by dropping after two "
              "programmable waits.\nThe Monitor Processor recovers dropped "
              "packets and installs a permanent rerouting around the\ndead "
              "link (§5.3), restoring delivery without hardware ER.\n");
  h.metric("er_on_delivery_pct",
           er_on.sent ? 100.0 * static_cast<double>(er_on.delivered) /
                            static_cast<double>(er_on.sent)
                      : 0.0,
           "%");
  h.metric("er_off_monitor_delivery_pct",
           er_off_monitor.sent
               ? 100.0 * static_cast<double>(er_off_monitor.delivered) /
                     static_cast<double>(er_off_monitor.sent)
               : 0.0,
           "%");
  return h.finish();
}
