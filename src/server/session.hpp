// One server session: an isolated simulation with a lifecycle of
//
//   load network -> configure -> run/step -> stream spikes -> teardown
//
// A session compiles its SessionSpec into a core::System on its first
// service slice, runs requested biological time in bounded slices so many
// sessions share the driving threads fairly, and exposes incremental spike
// drains between slices so a client can poll or stream results mid-run.
// Sessions are isolated: each owns its engine lease (own RNG streams via
// the engine reset) and its own recorder.
//
// Thread model: every public method is safe to call from any thread.  One
// mutex guards all state; whichever thread services a slice (a waiter, a
// socket reactor, a poll() caller) holds it for the duration of that
// slice, so client calls (drain/status/close) interleave at slice
// granularity.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hpp"
#include "core/fault_controller.hpp"
#include "server/engine_pool.hpp"
#include "server/spec.hpp"

namespace spinn::server {

using SessionId = std::uint64_t;

/// 0 is never a valid session id (open() returns it on rejection).
inline constexpr SessionId kInvalidSession = 0;

enum class SessionState : std::uint8_t {
  Pending,  // accepted; system not yet built (build is the first slice)
  Ready,    // built and idle: runnable, drainable, evictable
  Running,  // a slice is advancing biological time
  Failed,   // build or load failed; error() says why
  Closed,   // torn down (client close, eviction or server shutdown)
};

const char* to_string(SessionState s);

/// A point-in-time snapshot of everything a client can ask about a session.
struct SessionStatus {
  SessionId id = kInvalidSession;
  SessionState state = SessionState::Pending;
  bool evicted = false;
  TimeNs bio_now = 0;     // biological time simulated so far
  TimeNs bio_target = 0;  // biological time requested so far
  std::size_t spikes_recorded = 0;
  std::size_t spikes_drained = 0;
  std::size_t chips_alive = 0;  // boot report (0 when spec.boot == false)
  bool load_ok = false;
  std::string error;
  // Fault-schedule aggregates (all zero for a fault-free session).
  std::size_t faults_scheduled = 0;
  std::size_t faults_executed = 0;
  std::size_t migrations = 0;
  std::size_t routers_rewritten = 0;
  TimeNs recovery_ns = 0;
  std::uint64_t spikes_lost = 0;
};

class Session {
 public:
  Session(SessionId id, SessionSpec spec, EnginePool& pool);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  SessionId id() const { return id_; }
  const SessionSpec& spec() const { return spec_; }

  /// Extend the biological-time target.  Work happens in scheduler slices;
  /// returns false once the session is closed or failed.
  bool request_run(TimeNs duration) SPINN_EXCLUDES(mu_);

  /// Queue a fault for the session's chaos schedule.  The action is
  /// validated against the spec's machine dimensions here; it is handed to
  /// the fault controller (and becomes a root-actor simulation event) at
  /// the next service slice, so serial, sharded and wire-driven sessions
  /// see the identical fault timeline.  False with a reason for
  /// out-of-range coordinates or a closed/failed session.
  bool schedule_fault(const FaultAction& action, std::string* error)
      SPINN_EXCLUDES(mu_);

  /// Perform one work quantum on the calling thread: build the system if
  /// still Pending, else advance at most `slice` of biological time.
  /// Returns true while more work is pending; otherwise clears the queued
  /// flag under the session lock, so a racing run request either lands
  /// before the check or finds the flag clear and re-submits.
  bool service(TimeNs slice) SPINN_EXCLUDES(mu_);

  /// True while the session needs service (build pending or bio time
  /// still owed).
  bool has_work() const SPINN_EXCLUDES(mu_);

  /// Invoke `fn` exactly once when the session next has no pending work:
  /// immediately (on the calling thread) if already idle, otherwise from
  /// whichever thread drains the work (the one servicing the last slice,
  /// or close()).  Transports park a pipelined `wait` on it instead of
  /// tying up a thread.  `fn` must not call back into the session.
  void notify_idle(std::function<void()> fn) SPINN_EXCLUDES(mu_);

  /// Spikes recorded since the previous drain, in recording order.  Empty
  /// after teardown.
  std::vector<neural::SpikeRecorder::Event> drain() SPINN_EXCLUDES(mu_);

  SessionStatus status() const SPINN_EXCLUDES(mu_);

  /// Tear down: destroy the system, return the engine to the pool.  Safe to
  /// call repeatedly and concurrently; only the first call acts (returns
  /// true).  `evicted` marks the teardown as server-initiated in status().
  bool close(bool evicted = false) SPINN_EXCLUDES(mu_);

  /// Scheduler queue-membership flag (dedup: a session sits in the ready
  /// queue at most once).  try_mark_queued() returns true to the single
  /// caller that acquired queue membership; service() clears it.  A
  /// session owing work is queued, bar the instant between a request and
  /// its submit on the requesting thread — so queued() is the lock-free
  /// busy probe a waiter polls without blocking behind a running slice.
  bool try_mark_queued() {
    return !queued_.exchange(true, std::memory_order_acq_rel);
  }
  bool queued() const { return queued_.load(std::memory_order_acquire); }

 private:
  /// Timed wrapper (session.build span + server.build_ns histogram)
  /// around the actual compile in build_impl_locked().
  void build_locked() SPINN_REQUIRES(mu_);
  void build_impl_locked() SPINN_REQUIRES(mu_);
  /// Hand queued fault actions to the controller (root-event scheduling).
  void flush_faults_locked() SPINN_REQUIRES(mu_);
  /// Surface fatal fault outcomes — failed migrations, glitch-link
  /// deadlock-watchdog expiries — as the failed session state.
  void poll_faults_locked() SPINN_REQUIRES(mu_);
  bool work_pending_locked() const SPINN_REQUIRES(mu_);
  TimeNs goal_locked() const SPINN_REQUIRES(mu_) {
    return run_base_ + requested_;
  }

  const SessionId id_;
  const SessionSpec spec_;
  EnginePool& pool_;
  /// Wall time at open — the TTFS (time-to-first-spike) epoch.
  const std::int64_t opened_wall_ns_;

  mutable Mutex mu_;
  std::atomic<bool> queued_{false};

  SessionState state_ SPINN_GUARDED_BY(mu_) = SessionState::Pending;
  bool evicted_ SPINN_GUARDED_BY(mu_) = false;
  /// Total biological time asked for.
  TimeNs requested_ SPINN_GUARDED_BY(mu_) = 0;
  /// Engine time when the run phase began (post-boot).
  TimeNs run_base_ SPINN_GUARDED_BY(mu_) = 0;
  EnginePool::Lease lease_ SPINN_GUARDED_BY(mu_);
  std::unique_ptr<System> system_ SPINN_GUARDED_BY(mu_);
  boot::BootReport boot_report_ SPINN_GUARDED_BY(mu_);
  map::LoadReport load_report_ SPINN_GUARDED_BY(mu_);
  /// The built network, retained for the session's life: the fault
  /// controller's migrations regenerate routing from it against the live
  /// placement (load_report_.placement).
  std::unique_ptr<neural::Network> net_ SPINN_GUARDED_BY(mu_);
  /// Fault orchestration; destroyed only after the engine lease resets the
  /// event queue (queued fault/glitch closures point into it).
  std::unique_ptr<FaultController> faults_ SPINN_GUARDED_BY(mu_);
  /// Actions accepted before the next service slice hands them over.
  std::vector<FaultAction> pending_faults_ SPINN_GUARDED_BY(mu_);
  std::size_t drained_total_ SPINN_GUARDED_BY(mu_) = 0;
  /// server.ttfs_ns fires once, at the first slice that recorded a spike.
  bool ttfs_observed_ SPINN_GUARDED_BY(mu_) = false;
  std::string error_ SPINN_GUARDED_BY(mu_);
  /// One-shot callbacks waiting for the next idle instant (see notify_idle).
  /// Swapped out under mu_ and *fired after release*: a callback may
  /// re-enter the scheduler or write a transport's wakeup pipe.
  std::vector<std::function<void()>> idle_callbacks_ SPINN_GUARDED_BY(mu_);
};

}  // namespace spinn::server
