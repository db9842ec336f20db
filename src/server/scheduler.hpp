// The session scheduler: a ready queue of sessions, with no threads.
//
// Sessions are serviced in bounded biological-time slices and requeued at
// the back of the queue, giving round-robin fairness: eight sessions all
// make continuous progress, and a client polling drain() on any of them
// sees spikes appear between slices rather than only at the end.  A
// session sits in the queue at most once (its queued flag), so concurrent
// run requests never double-schedule it.  The threads that need progress
// drain the queue: a waiter, a socket reactor, an embedder calling poll().
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>

#include "common/thread_annotations.hpp"
#include "server/session.hpp"

namespace spinn::server {

class SessionScheduler {
 public:
  explicit SessionScheduler(TimeNs slice) : slice_(slice) {}

  SessionScheduler(const SessionScheduler&) = delete;
  SessionScheduler& operator=(const SessionScheduler&) = delete;

  /// Make the session eligible for service (no-op if already queued).
  void submit(const std::shared_ptr<Session>& session) SPINN_EXCLUDES(mu_);

  /// Invoke `hook` whenever a session lands in the ready queue, and when a
  /// waiter returns with work still queued.  A transport whose threads
  /// drive the queue registers its wakeup here.  The hook runs outside the
  /// queue lock and must be cheap and non-reentrant (a pipe write).
  void set_submit_hook(std::function<void()> hook) SPINN_EXCLUDES(mu_);

  /// Service at most one queued session for one slice on the calling
  /// thread.  Returns false when the queue was empty.
  bool drive() SPINN_EXCLUDES(mu_);

  /// Run quanta on the calling thread until `session` owes no work; while
  /// another thread is mid-slice on it and the queue is empty, sleep until
  /// a slice ends.
  void drive_until_idle(const Session& session) SPINN_EXCLUDES(mu_);

  /// Sessions currently sitting in the ready queue (telemetry: the
  /// `server.queue_depth` gauge; a sustained non-zero depth means the
  /// driving threads are saturated).
  std::size_t depth() const SPINN_EXCLUDES(mu_);

 private:
  std::shared_ptr<Session> pop() SPINN_EXCLUDES(mu_);

  const TimeNs slice_;
  mutable Mutex mu_;
  /// Signalled when a slice ends or work lands, for blocked waiters.
  CondVar cv_;
  std::deque<std::shared_ptr<Session>> ready_ SPINN_GUARDED_BY(mu_);
  std::function<void()> submit_hook_ SPINN_GUARDED_BY(mu_);
  /// Slices ended so far: a waiter sleeps only while it is unchanged.
  std::uint64_t slices_ SPINN_GUARDED_BY(mu_) = 0;
};

}  // namespace spinn::server
