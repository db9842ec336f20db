#include "net/reactor.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/thread_annotations.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace spinn::net {

namespace {

/// epoll tags for the two non-connection fds.  Connection ids count up
/// from 1 (Impl::next_conn), so the top of the 64-bit space is free.
constexpr std::uint64_t kWakeupTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenerTag = ~std::uint64_t{0} - 1;

/// After a hard accept error (fd exhaustion), how long the listener leaves
/// the epoll set.  Long enough to stop the 100%-CPU spin the old reactor
/// fell into (the listener stays readable while EMFILE persists), short
/// enough that recovery is prompt once fds free up.
constexpr int kAcceptBackoffMs = 50;

/// Wall-clock budget of one drive burst of scheduler quanta between epoll
/// waits.  The slice in progress when it runs out finishes first, so
/// sockets wait behind at most one slice plus this budget.
constexpr std::int64_t kDriveBurstNs = 200'000;

/// Set on a reactor thread for its whole loop.  A reactor only drives its
/// own server's sessions, so a notify or a session submission made on a
/// reactor thread is one for that reactor, which is already awake and
/// drains its resume queue and scheduler before it sleeps.
thread_local bool t_on_reactor = false;

/// Self-pipe used to wake the reactor: another thread pokes it when a
/// parked session idles or when it submits session work, stop() pokes it
/// to interrupt the epoll wait.  Shared (via shared_ptr) between the
/// reactor, every registered idle callback and the work signal, so a
/// callback firing during server teardown still writes into a live object
/// whatever the member destruction order.
struct Wakeup {
  int fds[2] = {-1, -1};
  /// errno from a failed pipe(); 0 when the pipe exists.  A reactor with
  /// no wakeup pipe is not degraded-but-working — cross-thread resumes
  /// silently wait out the full epoll timeout and stop() lags — so
  /// construction fails loudly on it instead (Reactor ctor).
  int error = 0;
  Wakeup() {
    if (::pipe(fds) != 0) {
      error = errno;
      fds[0] = fds[1] = -1;
      return;
    }
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
  }
  ~Wakeup() {
    if (fds[0] >= 0) ::close(fds[0]);
    if (fds[1] >= 0) ::close(fds[1]);
  }
  void notify() const {
    // The reactor itself needs no wakeup: skipping the pipe write saves
    // two syscalls per session it drives.
    if (t_on_reactor) return;
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(fds[1], &b, 1);
  }
  void drain() const {
    char buf[256];
    while (::read(fds[0], buf, sizeof buf) > 0) {
    }
  }
};

/// Connection ids whose parked request became resumable.  Shared with the
/// idle callbacks for the same lifetime reason as Wakeup.
struct ResumeQueue {
  Mutex mu;
  std::vector<std::uint64_t> ids SPINN_GUARDED_BY(mu);
  void push(std::uint64_t id) SPINN_EXCLUDES(mu) {
    MutexLock lk(&mu);
    ids.push_back(id);
  }
  std::vector<std::uint64_t> take() SPINN_EXCLUDES(mu) {
    MutexLock lk(&mu);
    std::vector<std::uint64_t> out;
    out.swap(ids);
    return out;
  }
};

}  // namespace

struct Reactor::Impl {
  Epoll ep;
  std::shared_ptr<Wakeup> wakeup = std::make_shared<Wakeup>();
  std::shared_ptr<ResumeQueue> resumed = std::make_shared<ResumeQueue>();

  struct Conn {
    Fd fd;
    std::uint64_t id = 0;
    FrameDecoder dec;
    std::deque<std::string> inbox;   // decoded, unserviced request frames
    std::unique_ptr<Request> active; // the request currently executing
    bool parked = false;             // active is waiting on a busy session
    std::string outbox;              // encoded responses not yet on the wire
    std::size_t out_pos = 0;         // prefix of outbox already sent
    bool dead = false;               // shed this iteration; erased at the end
    /// Peer half-closed (recv saw EOF): no more input will arrive, but the
    /// frames already decoded still execute and their responses still
    /// flush — only then does the connection close.  A draining conn drops
    /// EPOLLIN from its epoll mask (an EOF'd socket stays readable
    /// forever, which would busy-spin a level-triggered loop).
    bool draining = false;
    std::uint32_t events = 0;        // epoll mask currently installed
    /// Wall timestamp at which `active` was popped from the inbox — the
    /// start of the request-latency span (net.request_ns includes park
    /// time: it measures what the client experiences, decode-to-response).
    std::int64_t active_start_ns = 0;

    Conn(Fd f, std::uint64_t cid, std::size_t max_frame)
        : fd(std::move(f)), id(cid), dec(max_frame) {}
  };

  std::unordered_map<std::uint64_t, Conn> conns;
  std::uint64_t next_conn = 1;

  /// Accept backoff: after a hard accept error the listener leaves the
  /// epoll set until the deadline passes.
  bool accept_paused = false;
  std::chrono::steady_clock::time_point accept_resume{};

  mutable Mutex stats_mu;
  NetStats stats SPINN_GUARDED_BY(stats_mu);
};

Reactor::Reactor(NetServer& server)
    : srv_(server), impl_(std::make_unique<Impl>()) {
  if (impl_->wakeup->error != 0) {
    throw std::runtime_error(
        std::string("net: reactor: cannot create wakeup pipe (") +
        std::strerror(impl_->wakeup->error) +
        ") — cross-thread resumes would silently degrade to the epoll "
        "timeout");
  }
  if (!impl_->ep) {
    throw std::runtime_error(
        std::string("net: reactor: epoll_create1 failed (") +
        std::strerror(impl_->ep.error()) + ")");
  }
}

Reactor::~Reactor() {
  // NetServer::stop() joins before destruction; this is the safety net for
  // a partially-constructed server (thread never started).
  if (thread_.joinable()) thread_.join();
}

void Reactor::start() {
  thread_ = std::thread([this] { loop(); });
}

void Reactor::notify() { impl_->wakeup->notify(); }

void Reactor::join() {
  if (thread_.joinable()) thread_.join();
}

NetStats Reactor::stats() const {
  MutexLock lk(&impl_->stats_mu);
  return impl_->stats;
}

std::function<void()> Reactor::work_signal() const {
  return [wakeup = impl_->wakeup] { wakeup->notify(); };
}

void Reactor::loop() {
  auto& im = *impl_;
  const NetConfig& cfg = srv_.cfg_;
  server::SessionServer& sessions = srv_.sessions_;
  // Telemetry handles, resolved once: registration is the cold locked
  // path, the references are stable for the registry's life, and observing
  // through them is lock-free (docs/OBSERVABILITY.md).
  obs::Histogram& req_hist =
      obs::Registry::global().histogram("net.request_ns");
  obs::Tracer& tracer = obs::Tracer::global();
  const auto bump = [&](std::uint64_t NetStats::*member) {
    MutexLock lk(&im.stats_mu);
    im.stats.*member += 1;
  };
  std::vector<std::uint64_t> doomed;

  // Retire the connection: either its responses can no longer be delivered
  // correctly (overflow/flood) or at all (peer gone), or — counter == null
  // and draining — it finished an orderly half-close drain.  Parked idle
  // callbacks may still fire for it later; their conn id simply no longer
  // resolves.  The live-connection gauge drops here, not at the erase, so
  // `netstats` answered mid-iteration never counts doomed entries.
  const auto shed = [&](Impl::Conn& conn, std::uint64_t NetStats::*counter) {
    if (conn.dead) return;
    conn.dead = true;
    {
      MutexLock lk(&im.stats_mu);
      if (counter != nullptr) im.stats.*counter += 1;
      im.stats.connections -= 1;
    }
    doomed.push_back(conn.id);
  };

  const auto flush = [&](Impl::Conn& conn) {
    if (conn.dead) return false;
    const std::int64_t t0 = WallClock::now_ns();
    const std::size_t pos0 = conn.out_pos;
    bool alive = true;
    while (conn.out_pos < conn.outbox.size()) {
      // MSG_NOSIGNAL: a reset peer must be an EPIPE shed, not a
      // process-killing SIGPIPE.
      const ssize_t sent =
          ::send(conn.fd.get(), conn.outbox.data() + conn.out_pos,
                 conn.outbox.size() - conn.out_pos, MSG_NOSIGNAL);
      if (sent > 0) {
        conn.out_pos += static_cast<std::size_t>(sent);
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      shed(conn, nullptr);  // peer gone mid-write
      alive = false;
      break;
    }
    const std::size_t wired = conn.out_pos - pos0;
    if (alive && conn.out_pos >= conn.outbox.size()) {
      conn.outbox.clear();
      conn.out_pos = 0;
    }
    if (wired > 0) {
      tracer.complete("net", "net.flush", t0, WallClock::now_ns() - t0,
                      "bytes", wired);
    }
    return alive;
  };

  // Backpressure point, checked after every appended response.  Two
  // tiers: a single response bigger than the whole budget can never meet
  // the per-connection memory bound (it is already materialised in the
  // outbox) and sheds outright — clients drain incrementally instead of
  // requesting unboundedly large frames.  A backlog of several responses
  // tries the wire first: an actively-reading client absorbs it here, so
  // only a reader that actually stopped gets shed.
  const auto over_backlog = [&](Impl::Conn& conn, std::size_t frame_bytes) {
    if (frame_bytes > cfg.max_write_buffer) {
      shed(conn, &NetStats::shed_slow);
      return true;
    }
    if (conn.outbox.size() - conn.out_pos <= cfg.max_write_buffer) {
      return false;
    }
    if (!flush(conn)) return true;  // peer already gone
    if (conn.outbox.size() - conn.out_pos > cfg.max_write_buffer) {
      shed(conn, &NetStats::shed_slow);
      return true;
    }
    return false;
  };

  // Drive the connection's request pipeline as far as it can go without
  // blocking: execute queued frames in order, park on busy waits.
  const auto pump = [&](Impl::Conn& conn) {
    for (;;) {
      if (conn.dead) return false;
      if (conn.parked) return true;
      if (!conn.active) {
        if (conn.inbox.empty()) return true;
        conn.active = std::make_unique<Request>(srv_, conn.inbox.front());
        conn.active_start_ns = WallClock::now_ns();
        conn.inbox.pop_front();
        if (conn.active->commands() > 1) bump(&NetStats::batches);
      }
      if (conn.active->advance()) {
        const std::string& resp = conn.active->response();
        append_frame(conn.outbox, resp);
        {
          // Correlated counters under one acquisition: a concurrent
          // scrape sees this response's frame, bytes and faults together
          // or not at all, never the frame counted but its bytes missing.
          MutexLock lk(&im.stats_mu);
          im.stats.frames_out += 1;
          im.stats.bytes_out += kFrameHeader + resp.size();
          im.stats.faults += conn.active->faults_scheduled();
        }
        const std::int64_t now_ns = WallClock::now_ns();
        req_hist.observe(now_ns - conn.active_start_ns);
        tracer.complete("net", "net.request", conn.active_start_ns,
                        now_ns - conn.active_start_ns, "commands",
                        conn.active->commands());
        const std::size_t frame_bytes = kFrameHeader + resp.size();
        conn.active.reset();
        if (over_backlog(conn, frame_bytes)) return false;
      } else {
        const server::SessionId target = conn.active->waiting_on();
        conn.parked = true;
        auto rq = im.resumed;
        auto wk = im.wakeup;
        const std::uint64_t cid = conn.id;
        if (!sessions.notify_idle(target, [rq, wk, cid] {
              rq->push(cid);
              wk->notify();
            })) {
          // The session vanished between the busy check and registration:
          // resume immediately (the wait now resolves against the
          // tombstone).
          conn.parked = false;
          continue;
        }
        return true;
      }
    }
  };

  const auto read_input = [&](Impl::Conn& conn) {
    if (conn.dead) return false;
    if (conn.draining) return true;  // EOF already seen; nothing to read
    char buf[64 * 1024];
    for (;;) {
      const ssize_t got = ::recv(conn.fd.get(), buf, sizeof buf, 0);
      if (got > 0) {
        conn.dec.feed(buf, static_cast<std::size_t>(got));
        std::uint64_t frames = 0;
        std::string frame;
        while (conn.dec.next(&frame)) {
          ++frames;
          tracer.instant("net", "frame.decode", WallClock::now_ns(), "bytes",
                         frame.size());
          conn.inbox.push_back(std::move(frame));
        }
        {
          // The recv's bytes and the frames decoded from them land under
          // one lock acquisition, so a concurrent scrape never sees the
          // bytes counted with their frames missing (the torn-total bug
          // this grouping fixed).
          MutexLock lk(&im.stats_mu);
          im.stats.bytes_in += static_cast<std::uint64_t>(got);
          im.stats.frames_in += frames;
        }
        if (conn.dec.overflowed() || conn.inbox.size() > cfg.max_pipeline) {
          shed(conn, &NetStats::shed_flood);
          return false;
        }
        continue;
      }
      if (got == 0) {
        // Orderly EOF is end-of-input, not an error: a client that
        // pipelines a batch and shutdown(SHUT_WR)s still gets every
        // response.  Mark the conn draining; queued frames execute and
        // the outbox flushes before the close (the old reactor shed here,
        // dropping both).
        conn.draining = true;
        return true;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (got < 0 && errno == EINTR) continue;
      shed(conn, nullptr);  // hard error
      return false;
    }
  };

  // Resume every connection whose parked session idled, repeating until
  // the queue stays empty: pumping a resumed connection can itself park
  // and resume again inline (an already-idle session fires the callback
  // on this thread, with no pipe write), and nothing may be left behind
  // before the loop sleeps.  Fires from other threads always write the
  // pipe, so a notify racing the epoll wait is never lost either way.
  // Note: resumed connections are pumped but not flushed here — responses
  // coalesce in the outbox and go to the wire in one send per connection
  // at the end of the iteration (flush_pending), so a pipelined client
  // draining N waits costs one syscall, not N.
  const auto process_resumes = [&] {
    for (;;) {
      const std::vector<std::uint64_t> cids = im.resumed->take();
      if (cids.empty()) return;
      for (const std::uint64_t cid : cids) {
        auto it = im.conns.find(cid);
        if (it == im.conns.end()) continue;
        it->second.parked = false;
        pump(it->second);
      }
    }
  };

  const auto flush_pending = [&] {
    for (auto& [id, conn] : im.conns) {
      if (!conn.dead && conn.out_pos < conn.outbox.size()) flush(conn);
    }
  };

  // Accept until the queue drains.  Hard errors (fd exhaustion) count as
  // refusals and pause the listener: it stays readable while the error
  // persists, so continuing to poll it would spin at 100% CPU discovering
  // the same EMFILE forever.  Backoff is a deadline on the epoll timeout,
  // never a sleep (the reactor must not block).
  const auto accept_burst = [&] {
    for (;;) {
      int aerr = 0;
      Fd client = accept_nonblocking(srv_.listener_.get(), &aerr);
      if (!client) {
        if (aerr == 0) break;  // queue drained
        if (aerr == EINTR || aerr == ECONNABORTED || aerr == EPROTO) {
          continue;  // this connection failed; the next may be fine
        }
        bump(&NetStats::refused);
        im.accept_paused = true;
        im.accept_resume = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(kAcceptBackoffMs);
        im.ep.del(srv_.listener_.get());
        break;
      }
      bool admitted = false;
      {
        MutexLock lk(&im.stats_mu);
        admitted = im.stats.connections < cfg.max_connections;
        if (admitted) {
          im.stats.accepted += 1;
          im.stats.connections += 1;
        } else {
          im.stats.refused += 1;
        }
      }
      if (!admitted) continue;  // Fd destructor closes: refusal is the message
      // Into the connection map and the epoll set.  Bytes the client
      // already sent surface at the next epoll_wait (level-triggered).
      const std::uint64_t cid = im.next_conn++;
      const int fd = client.get();
      auto [it, inserted] = im.conns.emplace(
          cid, Impl::Conn(std::move(client), cid, cfg.max_frame));
      im.ep.add(fd, EPOLLIN, cid);
      it->second.events = EPOLLIN;
    }
  };

  // A draining connection that finished — inbox serviced, nothing active
  // or parked, outbox on the wire — closes in an orderly way (no shed
  // counter: this is the half-close contract completing, not an error).
  const auto finish_drained = [&] {
    for (auto& [id, conn] : im.conns) {
      if (!conn.dead && conn.draining && !conn.parked && !conn.active &&
          conn.inbox.empty() && conn.out_pos >= conn.outbox.size()) {
        shed(conn, nullptr);
      }
    }
  };

  // Keep each connection's epoll mask in sync with what it can make
  // progress on: input unless draining, output while the outbox has
  // unsent bytes.  A draining, parked connection polls nothing — its
  // resume arrives through the wakeup pipe.
  const auto sync_masks = [&] {
    for (auto& [id, conn] : im.conns) {
      std::uint32_t want = 0;
      if (!conn.draining) want |= EPOLLIN;
      if (conn.out_pos < conn.outbox.size()) want |= EPOLLOUT;
      if (want != conn.events) {
        im.ep.mod(conn.fd.get(), want, id);
        conn.events = want;
      }
    }
  };

  t_on_reactor = true;
  im.ep.add(im.wakeup->fds[0], EPOLLIN, kWakeupTag);
  im.ep.add(srv_.listener_.get(), EPOLLIN, kListenerTag);

  constexpr int kMaxEvents = 64;
  epoll_event evs[kMaxEvents];
  int timeout_ms = 500;
  while (!srv_.stopping_.load(std::memory_order_acquire)) {
    if (im.accept_paused) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= im.accept_resume) {
        im.ep.add(srv_.listener_.get(), EPOLLIN, kListenerTag);
        im.accept_paused = false;
      } else {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              im.accept_resume - now)
                              .count();
        const int left_ms = static_cast<int>(left) + 1;
        if (left_ms < timeout_ms) timeout_ms = left_ms;
      }
    }
    const int nev = im.ep.wait(evs, kMaxEvents, timeout_ms);
    if (nev < 0 && errno != EINTR) break;

    doomed.clear();
    bool accept_ready = false;

    for (int i = 0; i < nev; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kWakeupTag) {
        if ((evs[i].events & EPOLLIN) != 0) im.wakeup->drain();
      } else if (tag == kListenerTag) {
        accept_ready = true;
      }
    }
    process_resumes();
    if (accept_ready && !im.accept_paused) accept_burst();

    for (int i = 0; i < nev; ++i) {
      const std::uint64_t tag = evs[i].data.u64;
      if (tag == kWakeupTag || tag == kListenerTag) continue;
      auto it = im.conns.find(tag);
      if (it == im.conns.end()) continue;
      Impl::Conn& conn = it->second;
      if (conn.dead) continue;
      const std::uint32_t re = evs[i].events;
      if ((re & EPOLLERR) != 0) {
        shed(conn, nullptr);
        continue;
      }
      if (conn.draining && (re & EPOLLHUP) != 0) {
        // Half-close drain in progress but the peer fully hung up:
        // responses are undeliverable, so finish by shedding.
        shed(conn, nullptr);
        continue;
      }
      if ((re & (EPOLLIN | EPOLLHUP)) != 0) {
        if (!read_input(conn)) continue;
        if (!pump(conn)) continue;
      }
      flush(conn);
    }

    // Alternate driving and resuming until the queue is empty or the burst
    // budget is spent: answering a parked wait lets its connection pump the
    // next pipelined frame, which submits new session work — all on this
    // thread, with no pipe writes.  The wall-clock budget keeps a heavy
    // session from starving the sockets.
    timeout_ms = 500;
    const std::int64_t burst_end = WallClock::now_ns() + kDriveBurstNs;
    for (;;) {
      process_resumes();
      if (!sessions.poll()) break;  // queue empty: resumes drained
      if (WallClock::now_ns() >= burst_end) {
        timeout_ms = 0;  // work may remain: poll the sockets, come back
        break;
      }
    }
    // Inline idle fires during pump (already-idle sessions) queue resumes
    // with no pipe write: answer them before sleeping, then put every
    // coalesced response on the wire.
    process_resumes();
    flush_pending();
    finish_drained();

    for (const std::uint64_t id : doomed) im.conns.erase(id);
    sync_masks();
  }

  // Loop exit: every connection is dropped.
  im.conns.clear();
  MutexLock lk(&im.stats_mu);
  im.stats.connections = 0;
}

}  // namespace spinn::net
