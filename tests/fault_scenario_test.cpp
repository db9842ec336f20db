// The chaos-scenario suite (PR 8 tentpole): table-driven fault schedules
// run against live sessions, each scenario executed three ways — embedded
// on the serial engine, embedded on the sharded engine, and over the
// loopback socket transport — with the resulting spike streams and fault
// outcomes required to be bit-identical across all three.  Faults are
// root-actor events on the session's simulation timeline (see
// core/fault_controller.hpp), so the chaos schedule is part of the run,
// not a side channel, and the determinism contract survives it.
//
// The flagship assertion is the paper's §3.2 story end to end: killing a
// slice-hosting core mid-run completes a migration (slice relocated,
// multicast tables rewritten, recovery window reported) while the
// session's spike stream stays identical to the fault-free run outside
// that window — here demonstrated in its strongest form, full-stream
// equality, by faulting inside a quiet gap of a spike-source schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/fault_controller.hpp"
#include "core/system.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "server/server.hpp"
#include "session_test_util.hpp"

namespace spinn {
namespace {

using net::Client;
using net::NetServer;
using net::encode_net;
using net::parse_open_id;
using net::parse_spikes;
using test::Events;
using test::same_events;

/// Stable total order on the stream: by time, then key.  Used for
/// baseline comparisons where migration may permute the recording order
/// of spikes that share a timestamp.
Events sorted_by_time_key(Events events) {
  std::sort(events.begin(), events.end(),
            [](const neural::SpikeRecorder::Event& a,
               const neural::SpikeRecorder::Event& b) {
              return a.time != b.time ? a.time < b.time : a.key < b.key;
            });
  return events;
}

// ---- scenario table --------------------------------------------------------

struct Expectation {
  bool failed = false;
  /// Substrings the session's error must contain (empty for clean runs).
  std::vector<std::string> error_contains;
  long migrations = -1;  // -1: don't check
  bool stream_equals_baseline = false;
  bool zero_spikes_lost = false;
  bool nonzero_recovery = false;
};

struct Scenario {
  std::string name;
  server::SessionSpec spec;
  std::vector<FaultAction> schedule;
  TimeNs run = 40 * kMillisecond;
  Expectation expect;
};

/// What one execution mode observed; the harness compares these across
/// modes field by field.
struct Outcome {
  bool opened = false;
  Events events;
  bool failed = false;
  std::string error;
  std::uint64_t executed = 0;
  std::uint64_t migrations = 0;
  std::uint64_t spikes_lost = 0;
  TimeNs recovery_ns = 0;
};

// ---- placement discovery ---------------------------------------------------

/// The session's placement is a pure function of the spec (same seed, same
/// compile path as the server): a private System discovers which core
/// hosts a population's first slice, so scenarios can aim their kills.
CoreId core_hosting(const server::SessionSpec& spec,
                    neural::PopulationId pop) {
  System sys(server::system_config(spec));
  neural::Network net = server::build_network(spec);
  const map::LoadReport report = sys.load(net);
  EXPECT_TRUE(report.ok) << report.error;
  return report.placement.slices[report.placement.by_population[pop][0]]
      .core;
}

std::size_t slices_on_chip(const server::SessionSpec& spec, ChipCoord chip) {
  System sys(server::system_config(spec));
  neural::Network net = server::build_network(spec);
  const map::LoadReport report = sys.load(net);
  std::size_t n = 0;
  for (const map::Slice& s : report.placement.slices) {
    if (s.core.chip == chip) ++n;
  }
  return n;
}

// ---- fault action shorthands -----------------------------------------------

FaultAction kill_core(CoreId victim, TimeNs at) {
  FaultAction a;
  a.kind = FaultAction::Kind::KillCore;
  a.chip = victim.chip;
  a.core = victim.core;
  a.at = at;
  return a;
}

FaultAction kill_chip(ChipCoord chip, TimeNs at) {
  FaultAction a;
  a.kind = FaultAction::Kind::KillChip;
  a.chip = chip;
  a.at = at;
  return a;
}

FaultAction glitch_link(ChipCoord chip, LinkDir dir, TimeNs at, double rate,
                        std::uint64_t symbols, bool conventional) {
  FaultAction a;
  a.kind = FaultAction::Kind::GlitchLink;
  a.chip = chip;
  a.dir = dir;
  a.at = at;
  a.glitch_rate_hz = rate;
  a.glitch_symbols = symbols;
  a.conventional = conventional;
  return a;
}

FaultAction heal_link(ChipCoord chip, LinkDir dir, TimeNs at) {
  FaultAction a;
  a.kind = FaultAction::Kind::HealLink;
  a.chip = chip;
  a.dir = dir;
  a.at = at;
  return a;
}

// ---- mode runners ----------------------------------------------------------

Outcome run_embedded(const Scenario& sc, sim::EngineKind engine) {
  Outcome out;
  server::SessionServer server;
  server::SessionSpec spec = sc.spec;
  spec.engine = engine;
  if (engine == sim::EngineKind::Sharded) {
    spec.shards = 4;
    spec.threads = 2;
  }
  std::string error;
  const server::SessionId id = server.open(spec, &error);
  EXPECT_NE(id, server::kInvalidSession) << error;
  if (id == server::kInvalidSession) return out;
  out.opened = true;
  // The whole chaos schedule is queued before any biological time runs,
  // so every mode sees the identical fault timeline.
  for (const FaultAction& a : sc.schedule) {
    EXPECT_TRUE(server.fault(id, a, &error)) << describe(a) << ": " << error;
  }
  EXPECT_TRUE(server.run(id, sc.run));
  server.wait(id);
  const server::SessionStatus st = server.status(id);
  out.failed = st.state == server::SessionState::Failed;
  out.error = st.error;
  out.executed = st.faults_executed;
  out.migrations = st.migrations;
  out.spikes_lost = st.spikes_lost;
  out.recovery_ns = st.recovery_ns;
  out.events = server.drain(id);
  server.close(id);
  return out;
}

/// `fault <id> ...` in the wire grammar (inverse of protocol.cpp's parse).
std::string fault_line(server::SessionId id, const FaultAction& a) {
  const std::string chip =
      std::to_string(a.chip.x) + "," + std::to_string(a.chip.y);
  std::string line = "fault " + std::to_string(id) + " ";
  switch (a.kind) {
    case FaultAction::Kind::KillCore:
      line += "kill core=" + chip + "," + std::to_string(a.core);
      break;
    case FaultAction::Kind::KillChip:
      line += "kill chip=" + chip;
      break;
    case FaultAction::Kind::GlitchLink:
      line += std::string("glitch link=") + chip + "," + to_string(a.dir) +
              " rate=" + std::to_string(a.glitch_rate_hz) +
              " symbols=" + std::to_string(a.glitch_symbols) +
              " conv=" + (a.conventional ? "1" : "0");
      break;
    case FaultAction::Kind::HealLink:
      line += std::string("heal link=") + chip + "," + to_string(a.dir);
      break;
  }
  line += " at=" + std::to_string(a.at / kMillisecond);
  return line;
}

std::uint64_t status_field(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return 0;
  std::size_t start = pos + key.size() + 2;
  std::size_t end = start;
  while (end < line.size() && line[end] != ' ') ++end;
  std::uint64_t v = 0;
  EXPECT_TRUE(server::parse_u64_strict(line.substr(start, end - start),
                                       ~std::uint64_t{0}, &v))
      << key << " in: " << line;
  return v;
}

Outcome run_wire(const Scenario& sc) {
  Outcome out;
  NetServer srv;
  Client client(srv.port());
  const server::SessionSpec& spec = sc.spec;
  std::string open = "open width=" + std::to_string(spec.width) +
                     " height=" + std::to_string(spec.height) +
                     " cores=" + std::to_string(spec.cores_per_chip) +
                     " neurons_per_core=" +
                     std::to_string(spec.neurons_per_core) +
                     " seed=" + std::to_string(spec.seed);
  server::SessionId id = server::kInvalidSession;
  if (spec.net) {
    // A client-described net travels as its canonical `net ... end` block
    // in the same batch frame as the open that binds it.
    std::string frame;
    for (const std::string& line : encode_net(*spec.net)) frame += line + "\n";
    frame += open + " app=@";
    const std::string resp = client.request(frame);
    const std::size_t nl = resp.rfind('\n');
    const std::string last =
        nl == std::string::npos ? resp : resp.substr(nl + 1);
    EXPECT_TRUE(parse_open_id(last, &id)) << resp;
  } else {
    EXPECT_TRUE(parse_open_id(client.request(open + " app=" + spec.app),
                              &id));
  }
  if (id == server::kInvalidSession) return out;
  out.opened = true;
  const std::string sid = std::to_string(id);
  for (const FaultAction& a : sc.schedule) {
    EXPECT_EQ(client.request(fault_line(id, a)), "ok") << fault_line(id, a);
  }
  EXPECT_EQ(client.request("run " + sid + " " +
                           std::to_string(sc.run / kMillisecond)),
            "ok");
  client.request("wait " + sid);  // parks until the chaos run settles
  const std::string status = client.request("status " + sid);
  out.failed = status.find("state=failed") != std::string::npos;
  const std::size_t err = status.find(" error=");
  if (err != std::string::npos) out.error = status.substr(err + 7);
  out.executed = status_field(status, "executed");
  out.migrations = status_field(status, "migrations");
  out.spikes_lost = status_field(status, "spikes_lost");
  out.recovery_ns = static_cast<TimeNs>(status_field(status, "recovery_ns"));
  EXPECT_TRUE(parse_spikes(client.request("drain " + sid), &out.events));
  EXPECT_EQ(client.request("close " + sid), "ok");
  return out;
}

// ---- the harness -----------------------------------------------------------

void check(const Scenario& sc) {
  SCOPED_TRACE(sc.name);
  const Events baseline = server::run_standalone(sc.spec, sc.run);
  const Outcome serial = run_embedded(sc, sim::EngineKind::Serial);
  const Outcome sharded = run_embedded(sc, sim::EngineKind::Sharded);
  const Outcome wire = run_wire(sc);
  ASSERT_TRUE(serial.opened && sharded.opened && wire.opened);

  // Determinism across modes: faults are simulation events, so serial,
  // sharded and wire-driven executions agree bit for bit — streams, fault
  // outcomes, even the error text (which embeds event-time quantities).
  EXPECT_TRUE(same_events(serial.events, sharded.events))
      << "serial vs sharded stream diverged (" << serial.events.size()
      << " vs " << sharded.events.size() << " events)";
  EXPECT_TRUE(same_events(serial.events, wire.events))
      << "serial vs wire stream diverged (" << serial.events.size() << " vs "
      << wire.events.size() << " events)";
  EXPECT_EQ(serial.failed, sharded.failed);
  EXPECT_EQ(serial.failed, wire.failed);
  EXPECT_EQ(serial.error, sharded.error);
  EXPECT_EQ(serial.error, wire.error);
  EXPECT_EQ(serial.executed, sharded.executed);
  EXPECT_EQ(serial.executed, wire.executed);
  EXPECT_EQ(serial.migrations, sharded.migrations);
  EXPECT_EQ(serial.migrations, wire.migrations);
  EXPECT_EQ(serial.spikes_lost, sharded.spikes_lost);
  EXPECT_EQ(serial.spikes_lost, wire.spikes_lost);
  EXPECT_EQ(serial.recovery_ns, sharded.recovery_ns);
  EXPECT_EQ(serial.recovery_ns, wire.recovery_ns);

  // The expected outcome of the scenario itself.
  EXPECT_EQ(serial.failed, sc.expect.failed) << serial.error;
  for (const std::string& want : sc.expect.error_contains) {
    EXPECT_NE(serial.error.find(want), std::string::npos)
        << "error missing '" << want << "': " << serial.error;
  }
  if (sc.expect.migrations >= 0) {
    EXPECT_EQ(serial.migrations,
              static_cast<std::uint64_t>(sc.expect.migrations));
  }
  if (sc.expect.stream_equals_baseline) {
    ASSERT_FALSE(baseline.empty());
    // Order-insensitive at equal timestamps: migration moves a slice to a
    // different core, which legitimately permutes the recording order of
    // simultaneous spikes (the multicast payloads and their times are what
    // the fabric guarantees, not which core's packet a recorder sees
    // first).  Cross-mode checks above stay strictly ordered because all
    // three engines run the identical placement history.
    EXPECT_TRUE(same_events(sorted_by_time_key(serial.events),
                            sorted_by_time_key(baseline)))
        << "stream differs from the fault-free run (" << serial.events.size()
        << " vs " << baseline.size() << " events)";
  }
  if (sc.expect.zero_spikes_lost) {
    EXPECT_EQ(serial.spikes_lost, 0u);
  }
  if (sc.expect.nonzero_recovery) {
    EXPECT_GT(serial.recovery_ns, 0);
  }
}

// ---- nets ------------------------------------------------------------------

/// A spike-source → LIF pair whose schedule goes quiet between 13 and 21
/// ms — the window chaos scenarios fault inside when they need the
/// migration to be invisible: no packets in flight, no state in motion.
std::shared_ptr<const neural::NetworkDescription> quiet_gap_net() {
  neural::NetworkDescription desc;
  auto src = neural::make_population(
      "src", neural::NeuronModel::SpikeSourceArray, 8);
  src.record = true;
  src.schedule.assign(8, {});
  for (std::uint32_t n = 0; n < 8; ++n) {
    for (std::uint32_t tick = 2 + n % 3; tick <= 12; tick += 2) {
      src.schedule[n].push_back(tick);
    }
    for (std::uint32_t tick = 22 + n % 3; tick <= 38; tick += 2) {
      src.schedule[n].push_back(tick);
    }
  }
  desc.populations.push_back(std::move(src));
  auto dst = neural::make_population("dst", neural::NeuronModel::Lif, 8);
  dst.record = true;
  desc.populations.push_back(std::move(dst));
  desc.projections.push_back(neural::make_projection(
      "src", "dst", neural::Connector::one_to_one(),
      neural::ValueDist::fixed(8.0), neural::ValueDist::fixed(1.0)));
  return std::make_shared<const neural::NetworkDescription>(std::move(desc));
}

server::SessionSpec quiet_gap_spec() {
  server::SessionSpec spec;
  spec.net = quiet_gap_net();
  spec.seed = 11;
  return spec;
}

server::SessionSpec noise_spec() {
  server::SessionSpec spec;
  spec.app = "noise";
  spec.seed = 5;
  return spec;
}

// ---- scenarios -------------------------------------------------------------

TEST(FaultScenario, MigrationIsInvisibleOutsideTheRecoveryWindow) {
  Scenario sc;
  sc.name = "quiet-gap kill: migration invisible";
  sc.spec = quiet_gap_spec();
  // Kill the core hosting the recorded source inside the quiet gap: the
  // slice migrates (same-chip spare, so the timer phase is preserved),
  // tables are rewritten, and the total stream must equal the fault-free
  // run — the §3.2 acceptance scenario in its strongest form.
  const CoreId victim = core_hosting(sc.spec, 0);
  sc.schedule = {kill_core(victim, 16 * kMillisecond)};
  sc.expect.migrations = 1;
  sc.expect.stream_equals_baseline = true;
  sc.expect.zero_spikes_lost = true;
  sc.expect.nonzero_recovery = true;
  check(sc);
}

TEST(FaultScenario, KillChipUnderLoadMigratesEveryResidentSlice) {
  Scenario sc;
  sc.name = "kill chip under load";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  const CoreId seed_core = core_hosting(sc.spec, 0);
  const std::size_t resident = slices_on_chip(sc.spec, seed_core.chip);
  ASSERT_GT(resident, 0u);
  const TimeNs fault_at = 10 * kMillisecond;
  sc.schedule = {kill_chip(seed_core.chip, fault_at)};
  sc.expect.migrations = static_cast<long>(resident);
  sc.expect.nonzero_recovery = true;
  check(sc);

  // Under live traffic the post-fault stream may legitimately diverge
  // (packets queued at the dead chip are lost), but the prefix before the
  // fault instant must equal the fault-free run exactly.
  const Events baseline = server::run_standalone(sc.spec, sc.run);
  const Outcome faulted = run_embedded(sc, sim::EngineKind::Serial);
  Events base_prefix;
  Events fault_prefix;
  for (const auto& e : baseline) {
    if (e.time < fault_at) base_prefix.push_back(e);
  }
  for (const auto& e : faulted.events) {
    if (e.time < fault_at) fault_prefix.push_back(e);
  }
  ASSERT_FALSE(base_prefix.empty());
  EXPECT_TRUE(same_events(base_prefix, fault_prefix))
      << "pre-fault prefix diverged (" << base_prefix.size() << " vs "
      << fault_prefix.size() << " events)";
}

TEST(FaultScenario, KillingTheSameCoreTwiceFailsTheSessionLoudly) {
  Scenario sc;
  sc.name = "kill same core twice";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  const CoreId victim = core_hosting(sc.spec, 0);
  sc.schedule = {kill_core(victim, 5 * kMillisecond),
                 kill_core(victim, 15 * kMillisecond)};
  sc.expect.failed = true;
  sc.expect.error_contains = {"fault @15", "kill core=", "no slice"};
  check(sc);
}

TEST(FaultScenario, NoSpareLeftFailsWithQuantifiedExhaustion) {
  Scenario sc;
  sc.name = "no spare left";
  // A machine exactly as large as its net: 1 chip, 1 monitor + 2 app
  // cores, both occupied — the first kill exhausts the spare pool.
  server::SessionSpec spec;
  spec.width = 1;
  spec.height = 1;
  spec.cores_per_chip = 3;
  spec.seed = 3;
  neural::NetworkDescription desc;
  auto a = neural::make_population("a", neural::NeuronModel::PoissonSource,
                                   32);
  a.rate_hz = 40.0;
  desc.populations.push_back(std::move(a));
  auto b = neural::make_population("b", neural::NeuronModel::Lif, 32);
  b.record = true;
  desc.populations.push_back(std::move(b));
  desc.projections.push_back(neural::make_projection(
      "a", "b", neural::Connector::one_to_one(),
      neural::ValueDist::fixed(2.0), neural::ValueDist::fixed(1.0)));
  spec.net = std::make_shared<const neural::NetworkDescription>(
      std::move(desc));
  sc.spec = spec;
  sc.run = 20 * kMillisecond;
  const CoreId victim = core_hosting(sc.spec, 1);
  sc.schedule = {kill_core(victim, 5 * kMillisecond)};
  sc.expect.failed = true;
  sc.expect.error_contains = {"fault @5", "no spare application core",
                              "2 slices resident"};
  check(sc);
}

TEST(FaultScenario, ConventionalLinkGlitchDeadlocksAndFailsTheSession) {
  Scenario sc;
  sc.name = "conventional glitch deadlock";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  // 10 MHz/wire against conventional phase converters wedges almost
  // instantly (tests/glitch_link_test.cpp); the watchdog expiry must
  // surface as a failed session with a quantified reason — satellite 6's
  // no-silent-stall guarantee.
  sc.schedule = {glitch_link({0, 0}, LinkDir::East, 2 * kMillisecond, 1e7,
                             100000, /*conventional=*/true)};
  sc.expect.failed = true;
  sc.expect.error_contains = {"deadlock @", "link=0,0,E", "delivered="};
  check(sc);
}

TEST(FaultScenario, TransitionSensingSurvivesAWedgingGlitchRate) {
  Scenario sc;
  sc.name = "transition-sensing glitch survival";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  // The Fig. 6 transition-sensing circuit rides out sustained glitching
  // that wedges the conventional converter (previous scenario) — and the
  // glitch sidecar is machine-invisible, so the spike stream still equals
  // the fault-free run.  The rate stays an order of magnitude below that
  // scenario's 1e7 Hz: with the sidecar's real metastability window (the
  // unit test zeroes it) even transition sensing eventually loses a coin
  // flip at 10 MHz per wire.
  sc.schedule = {glitch_link({0, 0}, LinkDir::East, 2 * kMillisecond, 1e6,
                             20000, /*conventional=*/false)};
  sc.expect.migrations = 0;
  sc.expect.stream_equals_baseline = true;
  check(sc);
}

TEST(FaultScenario, GlitchingAnAlreadyGlitchedLinkFailsLoudly) {
  Scenario sc;
  sc.name = "double glitch rejected";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  sc.schedule = {glitch_link({0, 0}, LinkDir::East, 2 * kMillisecond, 1e5,
                             50000, /*conventional=*/false),
                 glitch_link({0, 0}, LinkDir::East, 4 * kMillisecond, 1e5,
                             50000, /*conventional=*/false)};
  sc.expect.failed = true;
  sc.expect.error_contains = {"fault @4", "already under glitch injection"};
  check(sc);
}

// ---- trace structure across modes ------------------------------------------

/// The mode-invariant shape of a fault-category trace event: timestamp
/// (virtual), name, kind, duration and argument all derive from
/// simulation state — only the recording thread (tid) may differ, so it
/// is the one field left out.
using FaultSpan = std::tuple<std::int64_t, std::string, bool, std::int64_t,
                             std::uint64_t>;

std::vector<FaultSpan> fault_spans() {
  std::vector<FaultSpan> out;
  for (const obs::TraceEvent& e : obs::Tracer::global().snapshot()) {
    if (std::string(e.cat) != "fault") continue;
    // Every fault span is stamped with simulation time; a wall-clock one
    // would silently break cross-mode comparability.
    EXPECT_TRUE(e.virtual_clock) << e.name;
    out.emplace_back(e.ts_ns, e.name, e.instant, e.dur_ns, e.arg);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The determinism contract extended to the telemetry: the flagship §3.2
// migration scenario leaves the identical fault → quiesce → migrate →
// resume span structure behind — same names, virtual timestamps,
// durations and arguments — whether it ran embedded-serial,
// embedded-sharded, or over the socket.
TEST(FaultScenario, FaultTraceStructureIsIdenticalAcrossModes) {
  Scenario sc;
  sc.name = "fault trace structure across modes";
  sc.spec = quiet_gap_spec();
  const CoreId victim = core_hosting(sc.spec, 0);
  sc.schedule = {kill_core(victim, 16 * kMillisecond)};

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.set_enabled(true);

  tracer.clear();
  run_embedded(sc, sim::EngineKind::Serial);
  const std::vector<FaultSpan> serial = fault_spans();

  tracer.clear();
  run_embedded(sc, sim::EngineKind::Sharded);
  const std::vector<FaultSpan> sharded = fault_spans();

  tracer.clear();
  run_wire(sc);
  const std::vector<FaultSpan> wire = fault_spans();
  // Env-gated dump of the whole wire-run trace — the virtual-time fault
  // spans plus the wall-clock net/session spans around them.  CI sets
  // SPINN_TRACE_OUT and archives the file as the sample trace artifact.
  if (const char* path = std::getenv("SPINN_TRACE_OUT")) {
    std::ofstream dump(path);
    dump << tracer.dump_json();
    EXPECT_TRUE(dump.good()) << path;
  }

  // The single kill-core migration tells its story in exactly four spans;
  // sorted by (ts, name) the three same-instant spans order
  // alphabetically, then the resume closes the recovery window.
  ASSERT_EQ(serial.size(), 4u);
  EXPECT_EQ(std::get<1>(serial[0]), "fault.inject");
  EXPECT_EQ(std::get<1>(serial[1]), "fault.migrate");
  EXPECT_EQ(std::get<1>(serial[2]), "fault.quiesce");
  EXPECT_EQ(std::get<1>(serial[3]), "fault.resume");
  // migrate is the one complete span: its duration is the recovery window,
  // and the resume instant sits exactly at its far edge.
  EXPECT_FALSE(std::get<2>(serial[1]));
  EXPECT_GT(std::get<3>(serial[1]), 0);
  EXPECT_EQ(std::get<0>(serial[3]),
            std::get<0>(serial[1]) + std::get<3>(serial[1]));

  EXPECT_EQ(serial, sharded);
  EXPECT_EQ(serial, wire);
}

TEST(FaultScenario, HealingAHealthyLinkIsACleanNoOp) {
  Scenario sc;
  sc.name = "heal healthy link";
  sc.spec = noise_spec();
  sc.run = 30 * kMillisecond;
  sc.schedule = {heal_link({0, 0}, LinkDir::East, 5 * kMillisecond)};
  sc.expect.migrations = 0;
  sc.expect.stream_equals_baseline = true;
  sc.expect.zero_spikes_lost = true;
  check(sc);
}

}  // namespace
}  // namespace spinn
