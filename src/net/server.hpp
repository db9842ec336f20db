// NetServer: the socket transport in front of a SessionServer.
//
// One epoll reactor thread (net/reactor.hpp) accepts and multiplexes every
// client connection: frames are decoded incrementally, each frame becomes
// a net::Request executed against the (thread-safe) SessionServer, and
// responses queue on a bounded per-connection write buffer.  The reactor
// also drives the session scheduler between epoll waits (see
// net/reactor.hpp).  Four properties carry the load story:
//
//  * **Pipelining** — a connection may send any number of request frames
//    without reading responses; they execute in order and answer in order
//    (up to `max_pipeline` in flight, beyond which the flooding connection
//    is shed).
//  * **Parked waits** — a `wait` on a busy session suspends that
//    connection's current request (later frames stay queued behind it) and
//    resumes via SessionServer::notify_idle through the reactor's wakeup
//    pipe; the reactor never blocks on simulation progress, so one slow
//    session cannot stall the other connections.
//  * **Backpressure** — a connection that stops reading while responses
//    accumulate past `max_write_buffer` bytes is shed (closed, counted in
//    stats) instead of growing the server's memory: slow readers lose
//    their connection, not the server.
//  * **Half-close draining** — a client that sends its requests and
//    `shutdown(SHUT_WR)` still receives every response: EOF marks the
//    connection draining, queued frames are serviced, the outbox is
//    flushed, and only then does the server close its side.
//
// Admission control is the SessionServer's cost-aware policy
// (ServerConfig::cost_budget); the transport adds only connection-level
// limits.  Protocol reference: docs/SERVER.md; client side: net/client.hpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/thread_annotations.hpp"
#include "net/socket.hpp"
#include "server/server.hpp"

namespace spinn::net {

class Reactor;

struct NetConfig {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read the choice from port()).
  std::uint16_t port = 0;
  /// Concurrent connections; accepts beyond this are closed immediately.
  std::size_t max_connections = 128;
  /// Hard cap on a single request or response frame.
  std::size_t max_frame = 8u << 20;
  /// Per-connection response backlog before a slow reader is shed.
  std::size_t max_write_buffer = 8u << 20;
  /// Decoded-but-unserviced request frames per connection before a
  /// flooding writer is shed.
  std::size_t max_pipeline = 256;
  /// Gate for the `trace start|stop|dump` verb.  Tracing is process-wide
  /// state (obs::Tracer), so a deployment serving untrusted clients can
  /// turn the verb off wholesale; `metrics` and `netstats` are read-only
  /// and always available.
  bool allow_trace = true;
  /// The embedded session server (slice, max_sessions, cost_budget,
  /// engine pool).
  server::ServerConfig session;
};

struct NetStats {
  std::uint64_t accepted = 0;
  std::uint64_t refused = 0;        // over max_connections
  std::uint64_t shed_slow = 0;      // write backlog over max_write_buffer
  std::uint64_t shed_flood = 0;     // pipeline depth / frame-size violations
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t batches = 0;        // frames carrying > 1 command
  std::uint64_t faults = 0;         // fault actions accepted onto schedules
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Currently open (live, non-doomed) connections: a gauge, not a
  /// counter.
  std::size_t connections = 0;
};

class NetServer {
 public:
  /// Binds and starts the reactor thread.  Throws std::runtime_error when
  /// the socket cannot be bound (port in use), when the reactor's epoll set
  /// or wakeup pipe cannot be created (fd exhaustion — a wakeup-less
  /// reactor would silently degrade every cross-thread resume to the poll
  /// timeout).
  explicit NetServer(const NetConfig& cfg = NetConfig{});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound port (the ephemeral choice when cfg.port was 0).
  std::uint16_t port() const { return port_; }

  /// The embedded session server — the same instance the sockets drive, so
  /// embedders can mix transport and API access (tests compare both).
  server::SessionServer& sessions() { return sessions_; }

  /// The configuration the server was built with.
  const NetConfig& config() const { return cfg_; }

  /// The transport counters and the live-connection gauge.
  NetStats stats() const;

  /// Stop accepting, drop every connection, join the reactor.  Sessions
  /// survive (the SessionServer tears down with the object, not the
  /// transport).  Idempotent.
  void stop();

 private:
  friend class Reactor;

  NetConfig cfg_;
  server::SessionServer sessions_;
  std::uint16_t port_ = 0;
  Fd listener_;
  std::atomic<bool> stopping_{false};
  Mutex stop_mu_;  // serialises the join across concurrent stop() calls
  std::unique_ptr<Reactor> reactor_;
};

}  // namespace spinn::net
