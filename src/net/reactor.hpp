// Reactor: the epoll event loop of the NetServer front-end.
//
// The reactor owns, privately: an epoll set holding the listener and
// every client connection, a wakeup pipe, a resume queue, the connection
// map and the NetStats counters.  It shares only the SessionServer it
// executes requests against (thread-safe by design), so no lock sits on
// any per-connection hot path; the one `stats_mu` exists for scrapes read
// off the reactor thread.
//
// The reactor also drives the session scheduler between epoll waits, for
// a short wall-clock burst: a request's session runs on the thread that
// decoded it, and a socket waits behind at most one slice.
//
// `notify_idle` resume callbacks capture the reactor's resume queue and
// wakeup pipe, so a waiter's idle fire from any thread lands on the loop
// that owns the parked connection (docs/CONCURRENCY.md).
//
// The loop itself must never block (tools/lint_invariants.py rules
// `reactor-blocking` / `reactor-loop` scan every Reactor::*loop* body);
// parked waits resume through the wakeup pipe, EOF drains rather than
// blocks (half-close semantics), and accept backoff after fd exhaustion is
// a timeout, not a sleep.
#pragma once

#include <functional>
#include <memory>
#include <thread>

#include "net/server.hpp"

namespace spinn::net {

class Reactor {
 public:
  /// Creates the epoll set and wakeup pipe (throws std::runtime_error on
  /// failure — a silently fd-less wakeup pipe would degrade every
  /// cross-thread resume to the poll timeout).  Does NOT spawn the thread:
  /// the NetServer start()s it once construction succeeded.
  explicit Reactor(NetServer& server);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Spawn the loop thread.
  void start();

  /// Wake the loop out of its epoll wait.  A no-op on the reactor thread
  /// (it is awake); safe from any other thread, including before start()
  /// and after join().
  void notify();

  /// Join the loop thread (caller must have set NetServer::stopping_ and
  /// notify()d).  Idempotent under the caller's serialisation.
  void join();

  /// The transport counters and the live-connection gauge.
  NetStats stats() const;

  /// The SessionServer work signal: notify(), in a callable that stays
  /// valid for as long as the SessionServer may call it.
  std::function<void()> work_signal() const;

 private:
  struct Impl;
  void loop();

  NetServer& srv_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

}  // namespace spinn::net
