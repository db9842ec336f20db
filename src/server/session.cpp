#include "server/session.hpp"

#include <algorithm>
#include <exception>

#include "common/clock.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace spinn::server {

namespace {

// Registration (the locked path) happens once, on first use; every later
// call is a plain reference read.  Build compiles a whole machine; TTFS
// spans build + first spiking slice.
obs::Histogram& build_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("server.build_ns");
  return h;
}

obs::Histogram& ttfs_hist() {
  static obs::Histogram& h =
      obs::Registry::global().histogram("server.ttfs_ns");
  return h;
}

}  // namespace

const char* to_string(SessionState s) {
  switch (s) {
    case SessionState::Pending: return "pending";
    case SessionState::Ready: return "ready";
    case SessionState::Running: return "running";
    case SessionState::Failed: return "failed";
    case SessionState::Closed: return "closed";
  }
  return "?";
}

Session::Session(SessionId id, SessionSpec spec, EnginePool& pool)
    : id_(id),
      spec_(std::move(spec)),
      pool_(pool),
      opened_wall_ns_(WallClock::now_ns()) {
  obs::Tracer::global().instant("session", "session.open", opened_wall_ns_,
                                "id", id_);
}

Session::~Session() { close(false); }

bool Session::request_run(TimeNs duration) {
  if (duration < 0) return false;
  MutexLock lk(&mu_);
  if (state_ == SessionState::Closed || state_ == SessionState::Failed) {
    return false;
  }
  requested_ += duration;
  return true;
}

void Session::build_locked() {
  const std::int64_t t0 = WallClock::now_ns();
  build_impl_locked();
  const std::int64_t dur = WallClock::now_ns() - t0;
  build_hist().observe(dur);
  obs::Tracer::global().complete("session", "session.build", t0, dur, "id",
                                 id_);
}

void Session::build_impl_locked() {
  try {
    const SystemConfig sys_cfg = system_config(spec_);
    lease_ = pool_.acquire(sys_cfg.engine);
    // The borrowed-engine constructor resets the engine under the machine
    // seed, making a pooled engine bit-indistinguishable from a fresh one.
    system_ = std::make_unique<System>(sys_cfg, *lease_);
    if (spec_.boot) boot_report_ = system_->boot();
    // The network is retained for the session's life: fault-driven
    // migrations regenerate routing from it against the live placement.
    net_ = std::make_unique<neural::Network>(build_network(spec_));
    load_report_ = system_->load(*net_);
    if (!load_report_.ok) {
      error_ = load_report_.error;
      state_ = SessionState::Failed;
      system_.reset();
      lease_.release();
      net_.reset();
      return;
    }
    // Streaming mode: drained spikes are released, so a session's memory is
    // bounded by its drain interval rather than its total run length.
    system_->spikes().retain_drained(false);
    run_base_ = system_->now();
    faults_ = std::make_unique<FaultController>(
        *system_, *net_, load_report_.placement, sys_cfg.mapper, run_base_,
        spec_.seed);
    state_ = SessionState::Ready;
  } catch (const std::exception& e) {
    error_ = e.what();
    state_ = SessionState::Failed;
    system_.reset();
    lease_.release();
    faults_.reset();
    net_.reset();
  }
}

bool Session::service(TimeNs slice) {
  // Idle callbacks fire after the lock is released: they may re-enter the
  // scheduler or write to a transport's wakeup pipe.
  std::vector<std::function<void()>> fire;
  bool more = false;
  {
    MutexLock lk(&mu_);
    if (state_ == SessionState::Pending) build_locked();
    if ((state_ == SessionState::Ready || state_ == SessionState::Running) &&
        system_) {
      // Queued faults become root-actor simulation events before any more
      // biological time runs: the fault timeline is part of the run, not a
      // side channel, which is what keeps serial, sharded and wire-driven
      // executions bit-identical under chaos.
      flush_faults_locked();
      if (system_->now() < goal_locked()) {
        state_ = SessionState::Running;
        const TimeNs step = std::min(slice, goal_locked() - system_->now());
        const std::int64_t t0 = WallClock::now_ns();
        try {
          system_->run(step);
        } catch (const std::exception& e) {
          error_ = e.what();
          state_ = SessionState::Failed;
        }
        obs::Tracer::global().complete("session", "session.slice", t0,
                                       WallClock::now_ns() - t0, "id", id_);
      }
      if (!ttfs_observed_ && system_->spikes().count() + drained_total_ > 0) {
        ttfs_observed_ = true;
        const std::int64_t now = WallClock::now_ns();
        ttfs_hist().observe(now - opened_wall_ns_);
        obs::Tracer::global().instant("session", "session.ttfs", now, "id",
                                      id_);
      }
      poll_faults_locked();
    }
    more = work_pending_locked();
    if (!more) {
      if (state_ == SessionState::Running) state_ = SessionState::Ready;
      idle_cv_.notify_all();
      fire.swap(idle_callbacks_);
    }
  }
  for (auto& fn : fire) fn();
  return more;
}

bool Session::work_pending_locked() const {
  switch (state_) {
    case SessionState::Pending: return true;
    case SessionState::Failed:
    case SessionState::Closed: return false;
    case SessionState::Ready:
    case SessionState::Running:
      // Queued fault actions need a service slice to enter the simulation
      // timeline even when no biological time is owed.
      return system_ &&
             (system_->now() < goal_locked() || !pending_faults_.empty());
  }
  return false;
}

bool Session::schedule_fault(const FaultAction& action, std::string* error) {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (action.at < 0) return fail("fault time must be non-negative");
  if (action.chip.x >= spec_.width || action.chip.y >= spec_.height) {
    return fail("chip (" + std::to_string(action.chip.x) + "," +
                std::to_string(action.chip.y) + ") outside the " +
                std::to_string(spec_.width) + "x" +
                std::to_string(spec_.height) + " machine");
  }
  if (action.kind == FaultAction::Kind::KillCore &&
      action.core >= spec_.cores_per_chip) {
    return fail("core " + std::to_string(action.core) +
                " outside the chip's " +
                std::to_string(spec_.cores_per_chip) + " cores");
  }
  MutexLock lk(&mu_);
  if (state_ == SessionState::Closed || state_ == SessionState::Failed) {
    return fail("session is " + std::string(to_string(state_)));
  }
  pending_faults_.push_back(action);
  return true;
}

void Session::flush_faults_locked() {
  if (!faults_ || pending_faults_.empty()) return;
  for (const FaultAction& action : pending_faults_) {
    faults_->schedule(action);
  }
  pending_faults_.clear();
}

void Session::poll_faults_locked() {
  if (!faults_ || state_ == SessionState::Failed ||
      state_ == SessionState::Closed) {
    return;
  }
  std::string reason;
  if (faults_->take_failure(&reason)) {
    // A failed migration or a glitch-link deadlock-watchdog expiry is a
    // session-fatal event with a quantified reason — never a silent stall.
    error_ = reason;
    state_ = SessionState::Failed;
  }
}

bool Session::has_work() const {
  MutexLock lk(&mu_);
  return work_pending_locked();
}

void Session::wait_idle() {
  // Explicit predicate loop: the analysis can't see into a predicate
  // lambda, and work_pending_locked() requires mu_.
  MutexLock lk(&mu_);
  while (work_pending_locked()) idle_cv_.wait(lk);
}

void Session::notify_idle(std::function<void()> fn) {
  {
    MutexLock lk(&mu_);
    if (work_pending_locked()) {
      idle_callbacks_.push_back(std::move(fn));
      return;
    }
  }
  fn();  // already idle: fire on the caller's thread, outside the lock
}

std::vector<neural::SpikeRecorder::Event> Session::drain() {
  MutexLock lk(&mu_);
  if (!system_) return {};
  auto out = system_->spikes().drain();
  drained_total_ += out.size();
  obs::Tracer::global().instant("session", "session.drain",
                                WallClock::now_ns(), "spikes", out.size());
  return out;
}

SessionStatus Session::status() const {
  MutexLock lk(&mu_);
  SessionStatus st;
  st.id = id_;
  st.state = state_;
  st.evicted = evicted_;
  st.bio_now = system_ ? std::max<TimeNs>(system_->now() - run_base_, 0) : 0;
  st.bio_target = requested_;
  st.spikes_recorded = system_ ? system_->spikes().count() : drained_total_;
  st.spikes_drained = drained_total_;
  st.chips_alive = boot_report_.chips_alive;
  st.load_ok = load_report_.ok && system_ != nullptr;
  st.error = error_;
  if (faults_) {
    const FaultTotals ft = faults_->totals();
    st.faults_scheduled = ft.scheduled + pending_faults_.size();
    st.faults_executed = ft.executed;
    st.migrations = ft.migrations;
    st.routers_rewritten = ft.routers_rewritten;
    st.recovery_ns = ft.recovery_ns;
    st.spikes_lost = ft.spikes_lost;
  } else {
    st.faults_scheduled = pending_faults_.size();
  }
  return st;
}

bool Session::close(bool evicted) {
  std::vector<std::function<void()>> fire;
  bool first = false;
  {
    MutexLock lk(&mu_);
    if (state_ != SessionState::Closed) {
      first = true;
      state_ = SessionState::Closed;
      evicted_ = evicted;
      // Destroy the machine before the engine lease goes back: the pool's
      // reset drops any still-queued event closures capturing machine state.
      // The fault controller and the retained network outlive the lease
      // release — queued fault/glitch closures point into them and are only
      // dropped by the pool's engine reset.
      system_.reset();
      lease_.release();
      faults_.reset();
      net_.reset();
      idle_cv_.notify_all();
      fire.swap(idle_callbacks_);
      obs::Tracer::global().instant("session", "session.close",
                                    WallClock::now_ns(), "id", id_);
    }
  }
  for (auto& fn : fire) fn();
  return first;
}

}  // namespace spinn::server
