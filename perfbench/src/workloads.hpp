// The benchmark's workloads and the traced-run probes they share.  Every
// workload reports the same metric names (see perfbench/README.md for what
// each name means on each workload); the probes measure one layer at a
// time through the library's public API.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "core/system.hpp"
#include "neural/network.hpp"

namespace perfbench {

/// Biological time of one session lifecycle's `run` (serve workloads), and
/// the stretch of sim_e12 checked against its serial reference.
inline constexpr spinn::TimeNs kBioStep = 10 * spinn::kMillisecond;

Result run_sim_e12(const Options& opt);
Result run_serve_chain(const Options& opt);
Result run_serve_wirenet(const Options& opt);

/// Traced-run probe of the description layer: NetParser::feed over
/// `lines`, neural::validate and neural::build, each the median of `reps`
/// calls, as neural.parse_us / neural.validate_us / neural.build_us.
void probe_description(const std::vector<std::string>& lines, int reps,
                       SpanRecorder& rec, Result& out);

/// Traced-run probe of map: construct, place, route and load `net` on a
/// `cfg`-shaped machine `reps` times (medians), filling core.construct_s,
/// map.place_s, map.route_s, map.load_s, map.elaborate_s, map.synapses,
/// map.rows and map.synapses_per_s.
void probe_map(const spinn::SystemConfig& cfg,
               const spinn::neural::Network& net, int reps, SpanRecorder& rec,
               Result& out);

/// map.load_us: System::load of the wirenet network on the session
/// machine shape, median of `reps`.
void probe_wirenet_load(int reps, SpanRecorder& rec, Result& out);

/// Traced-run probe of the serving layers on an idle default server
/// carrying `chain` lifecycles: the server.*, net.* and obs.* figures for
/// workloads that run no server of their own.
void probe_idle_chain_server(const Options& opt, SpanRecorder& rec,
                             Result& out);

}  // namespace perfbench
