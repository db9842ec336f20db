// Run-time fault injection and recovery orchestration (§3.2: "run-time
// support for functional migration and real-time fault mitigation").
//
// A FaultController turns a schedule of fault actions — kill a core, kill a
// chip, glitch an inter-chip link, heal a link — into root-actor events on
// the owning System's simulation timeline.  Root events execute through the
// engine's sequential globally-ordered merge (the sharded engine bounds its
// parallel windows at the earliest pending root event), so a fault is a
// global quiesce point: the same schedule produces bit-identical machine
// behaviour on the serial and sharded engines, and across the wire.
//
// Kill faults quiesce the victim and drive map::Migrator — the resident
// slice moves to a spare core and every multicast table is rewritten in the
// same atomic instant, the model of the monitor-driven reconfiguration a
// real machine would run while the fabric keeps serving.  Each record keeps
// the recovery estimate (table writes over the fabric), the routers
// rewritten, and the packets lost inside the recovery window.
//
// Glitch faults attach a link::GlitchLink sidecar — the §5.1 2-of-7 NRZ
// handshake model under Poisson glitch injection — as the physical-health
// model of one link.  If its deadlock watchdog fires, take_failure()
// surfaces it so the owning session can fail loudly instead of stalling
// silently.  Heal stops the injection and repairs the machine link.
//
// Thread model: none of its own.  The controller is owned by a
// server::Session and only touched under the session lock — from service
// slices (schedule/poll) and from root events executing inside
// System::run, which the servicing worker drives under that same lock.
// Entry points must not block: they run inside the engine's event loop
// (tools/lint_invariants.py enforces the same no-blocking discipline as
// the reactor loop).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "link/glitch_link.hpp"
#include "map/migration.hpp"

namespace spinn {

/// One scheduled fault.  `at` is biological time relative to the run phase
/// (the session's run_base); coordinates address the machine of the owning
/// System.
struct FaultAction {
  enum class Kind : std::uint8_t { KillCore, KillChip, GlitchLink, HealLink };

  Kind kind = Kind::KillCore;
  TimeNs at = 0;
  ChipCoord chip{};
  /// KillCore: the victim core on `chip`.
  CoreIndex core = 0;
  /// GlitchLink / HealLink: which of `chip`'s six links.
  LinkDir dir = LinkDir::East;
  /// GlitchLink: Poisson glitch rate per wire (Hz).
  double glitch_rate_hz = 1e6;
  /// GlitchLink: background symbols to stream across the afflicted link.
  std::uint64_t glitch_symbols = 1000;
  /// GlitchLink: conventional phase converters instead of the Fig. 6
  /// transition-sensing circuit (conventional converters deadlock readily —
  /// the knob chaos scenarios use to force a watchdog expiry).
  bool conventional = false;
};

/// Short human token for errors and status lines: "kill core=0,1,2",
/// "glitch link=0,0,E", ...
std::string describe(const FaultAction& action);

/// What one executed fault did.
struct FaultRecord {
  FaultAction action;
  bool executed = false;
  bool ok = false;
  /// Absolute simulation time the fault event ran at.
  TimeNs executed_at = 0;
  std::string error;
  /// Kill faults: the (last) migration performed.
  map::MigrationReport migration;
  std::size_t migrations = 0;
  std::size_t routers_rewritten = 0;
  std::uint64_t entries_written = 0;
  /// Reported recovery window (monitor-side reconfiguration estimate).
  TimeNs recovery_ns = 0;
  /// Packets lost between the fault instant and the end of the recovery
  /// window (victim queues discarded + arrivals at dead cores + fabric
  /// drops).  Final once the window-end probe has run.
  std::uint64_t spikes_lost = 0;
  bool spikes_lost_final = false;
};

/// Aggregate over all records, for session status reporting.
struct FaultTotals {
  std::size_t scheduled = 0;
  std::size_t executed = 0;
  std::size_t failed = 0;
  std::size_t migrations = 0;
  std::size_t routers_rewritten = 0;
  std::uint64_t entries_written = 0;
  TimeNs recovery_ns = 0;  // summed reported windows
  std::uint64_t spikes_lost = 0;
};

class FaultController {
 public:
  /// `net` and `placement` must be the live network/placement of `system`'s
  /// machine (the session's retained copies); `run_base` is the engine time
  /// the run phase began at, so FaultAction::at is biological.
  FaultController(System& system, const neural::Network& net,
                  map::PlacementResult& placement, map::MapperConfig mapper,
                  TimeNs run_base, std::uint64_t seed);
  ~FaultController();

  FaultController(const FaultController&) = delete;
  FaultController& operator=(const FaultController&) = delete;

  /// Schedule `action` as a root-actor event at run_base + action.at.
  /// Times already simulated are clamped to "now" (the fault executes at
  /// the next event-queue instant).  Always succeeds for a live system;
  /// execution errors surface in the record and via take_failure().
  void schedule(const FaultAction& action);

  std::size_t scheduled() const { return records_.size(); }
  const std::vector<FaultRecord>& records() const { return records_; }
  FaultTotals totals() const;

  /// First not-yet-reported fatal condition — an executed fault that
  /// failed, or a glitch-link sidecar whose deadlock watchdog expired.
  /// Returns true at most once per condition with a quantified reason
  /// ("fault @<ms> ...: <error>", "deadlock @<ms> link=...").  The owning
  /// session maps it to the failed state.
  bool take_failure(std::string* reason);

 private:
  struct Sidecar {
    ChipCoord chip;
    LinkDir dir = LinkDir::East;
    std::unique_ptr<link::GlitchLink> link;
    bool stopped = false;
    bool reported = false;
  };

  void execute(std::size_t index);
  void kill_core(std::size_t index);
  void kill_chip(std::size_t index);
  void glitch_link(std::size_t index);
  void heal_link(std::size_t index);
  void arm_loss_probe(std::size_t index);
  Sidecar* find_sidecar(ChipCoord chip, LinkDir dir);
  /// Machine-wide packet-loss odometer: fabric drops + per-core drops.
  std::uint64_t dropped_now() const;
  /// Biological milliseconds of an absolute simulation time.
  std::int64_t bio_ms(TimeNs abs) const {
    return (abs - run_base_) / kMillisecond;
  }

  System& system_;
  const neural::Network& net_;
  map::PlacementResult& placement_;
  map::MapperConfig mapper_;
  TimeNs run_base_;
  std::uint64_t seed_;
  bool failure_reported_ = false;
  std::vector<FaultRecord> records_;
  std::vector<Sidecar> sidecars_;
};

}  // namespace spinn
