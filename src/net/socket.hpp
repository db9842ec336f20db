// Thin portable wrappers over loopback TCP sockets and the epoll readiness
// interface.
//
// The transport deliberately binds 127.0.0.1 only: this is the simulator's
// host-link front door (the paper's Ethernet-attached Host System, Fig. 1),
// not an internet-facing daemon.  Everything above this file speaks in
// `Fd` / `Epoll` handles and byte buffers; everything below is POSIX (plus
// Linux epoll — the reactor targets the platform CI builds on).  Windows is
// not supported.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace spinn::net {

/// RAII file descriptor.  Movable, not copyable; -1 = empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  ~Fd() { close(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  explicit operator bool() const { return fd_ >= 0; }
  void close();
  /// Relinquish ownership (the caller closes).
  int release();

 private:
  int fd_ = -1;
};

/// Listen on 127.0.0.1:`port` (0 = ephemeral).  On success returns the
/// listening socket (non-blocking, SO_REUSEADDR) and stores the actual
/// port in *bound_port.  On failure returns an empty Fd with *error set.
Fd listen_loopback(std::uint16_t port, std::uint16_t* bound_port,
                   std::string* error);

/// Blocking connect to 127.0.0.1:`port`.  Empty Fd + *error on failure.
Fd connect_loopback(std::uint16_t port, std::string* error);

/// Accept one pending connection as a non-blocking socket; empty Fd when
/// none is pending or on error.  When `error_out` is non-null it reports
/// *why* the Fd is empty: 0 for "no pending connection" (EAGAIN — stop
/// accepting, nothing is wrong), EINTR/ECONNABORTED/EPROTO for "this one
/// failed, try the next" and any other errno (EMFILE, ENFILE, ENOBUFS,
/// ENOMEM...) for a hard failure the caller must back off from — the
/// listener stays readable, so re-polling it immediately busy-spins.
Fd accept_nonblocking(int listen_fd, int* error_out = nullptr);

/// RAII epoll instance (Linux).  Readiness events carry a caller-chosen
/// 64-bit tag (`epoll_event::data.u64`), so a reactor can dispatch on
/// connection ids without keeping a parallel fd→id array in sync the way
/// the old poll() loop had to.  Closing a registered fd removes it from
/// the set automatically; del() exists for fds that must stay open but
/// stop being polled (accept backoff).
class Epoll {
 public:
  Epoll();
  explicit operator bool() const { return static_cast<bool>(fd_); }
  /// errno from a failed epoll_create1 (0 when valid).
  int error() const { return error_; }

  bool add(int fd, std::uint32_t events, std::uint64_t tag);
  bool mod(int fd, std::uint32_t events, std::uint64_t tag);
  bool del(int fd);

  /// Wait up to `timeout_ms` (-1 = forever) for readiness; fills `events`
  /// up to `max_events`.  Returns the event count, 0 on timeout, -1 on
  /// error with errno set (EINTR included — callers loop).
  int wait(epoll_event* events, int max_events, int timeout_ms);

 private:
  Fd fd_;
  int error_ = 0;
};

/// Make `fd` non-blocking.  False on error.
bool set_nonblocking(int fd);

/// Disable Nagle: request/response framing wants the frame on the wire
/// now, not coalesced 40 ms later.
void set_nodelay(int fd);

/// Blocking send of the whole buffer (for the client side).  False on
/// error/EOF.
bool send_all(int fd, const char* data, std::size_t n);

/// Blocking receive of exactly `n` bytes (for the client side).  False on
/// error/EOF.
bool recv_exact(int fd, char* data, std::size_t n);

}  // namespace spinn::net
