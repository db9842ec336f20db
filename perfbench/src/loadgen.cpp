#include "loadgen.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <deque>
#include <random>
#include <stdexcept>
#include <thread>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace spinn;

const std::vector<std::string>& wirenet_lines() {
  static const std::vector<std::string> lines = [] {
    net::NetBuilder b;
    b.spike_source("stim", {{1, 5}, {3}});
    b.poisson("bg", 24, 30.0);
    b.lif("cells", 48);
    b.project("stim", "cells", neural::Connector::all_to_all(),
              neural::ValueDist::fixed(15.0), neural::ValueDist::fixed(1.0));
    b.project("bg", "cells", neural::Connector::fixed_probability(0.25),
              neural::ValueDist::uniform(2.0, 6.0),
              neural::ValueDist::fixed(1.0));
    return b.lines();
  }();
  return lines;
}

std::string lifecycle_frame(Kind kind, std::uint64_t seed) {
  std::string frame;
  if (kind == Kind::Wirenet) {
    for (const std::string& line : wirenet_lines()) frame += line + "\n";
  }
  frame += std::string("open app=") + (kind == Kind::Chain ? "chain" : "@") +
           " seed=" + std::to_string(seed) +
           "\nrun $ 10\nwait $\ndrain $\nclose $";
  return frame;
}

server::SessionSpec spec_for(const Refs& refs, std::uint64_t seed) {
  server::SessionSpec spec;
  spec.seed = seed;
  if (refs.kind == Kind::Chain) {
    spec.app = "chain";
  } else {
    spec.net = refs.net;
    spec.net_names = refs.names;
  }
  return spec;
}

EmbeddedTimes embedded_lifecycle(server::SessionServer& srv,
                                 const server::SessionSpec& spec,
                                 SpanRecorder& rec, bool split_build) {
  EmbeddedTimes t;
  const std::uint64_t lc = rec.enabled() ? rec.new_lifecycle() : 0;
  Scope whole(rec, split_build ? "embedded.lifecycle" : "embedded.batch", 0,
              lc);
  auto t0 = Clock::now();
  const server::SessionId id = srv.open(spec);
  auto t1 = Clock::now();
  rec.add("server.open", t0, t1, whole.id(), lc);
  t.open_s = seconds(t0, t1);
  if (id == server::kInvalidSession) return t;
  bool ok = true;
  if (split_build) {
    t0 = t1;
    ok = srv.wait(id);
    t1 = Clock::now();
    rec.add("server.build", t0, t1, whole.id(), lc);
    t.build_s = seconds(t0, t1);
  }
  t0 = t1;
  ok = srv.run(id, kBioStep) && ok;
  ok = srv.wait(id) && ok;
  t1 = Clock::now();
  rec.add(split_build ? "server.run" : "server.build_run", t0, t1, whole.id(),
          lc);
  t.run_s = seconds(t0, t1);
  t0 = t1;
  const auto events = srv.drain(id);
  t1 = Clock::now();
  rec.add("server.drain", t0, t1, whole.id(), lc);
  t.drain_s = seconds(t0, t1);
  t0 = t1;
  ok = srv.close(id) && ok;
  t1 = Clock::now();
  rec.add("server.close", t0, t1, whole.id(), lc);
  t.close_s = seconds(t0, t1);
  t.hash = spike_hash(events);
  t.ok = ok;
  return t;
}

Refs described(Kind kind) {
  Refs refs;
  refs.kind = kind;
  if (kind == Kind::Wirenet) {
    net::NetParser parser;
    const auto& lines = wirenet_lines();
    net::NetParser::Status status = net::NetParser::Status::More;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      status = parser.feed(lines[i]);
    }
    if (status != net::NetParser::Status::Done) {
      throw std::runtime_error("perfbench: wirenet does not parse: " +
                               parser.error());
    }
    refs.net = parser.take();
    refs.names = parser.take_names();
  }
  return refs;
}

Refs make_refs(Kind kind, std::uint64_t seed, const server::ServerConfig& cfg,
               Result& out) {
  Refs refs = described(kind);
  server::SessionServer srv(cfg);
  SpanRecorder off;
  for (int i = 0; i < kSeedPool; ++i) {
    const std::uint64_t s =
        1 + mix(seed * 1000003ull + static_cast<std::uint64_t>(i)) %
                1000000000ull;
    const EmbeddedTimes t =
        embedded_lifecycle(srv, spec_for(refs, s), off, true);
    out.check(t.ok, "embedded reference lifecycle failed");
    refs.seeds.push_back(s);
    refs.hashes.push_back(t.hash);
    refs.frames.push_back(lifecycle_frame(kind, s));
  }
  return refs;
}

bool reply_ok(const Refs& refs, std::size_t index, const std::string& reply) {
  const auto blocks = net::Client::split_response(reply);
  const std::size_t want = refs.kind == Kind::Chain ? 5 : 6;
  if (blocks.size() != want) return false;
  for (const auto& b : blocks) {
    if (b.rfind("err", 0) == 0) return false;
  }
  std::vector<neural::SpikeRecorder::Event> events;
  return net::parse_spikes(blocks[want - 2], &events) &&
         spike_hash(events) == refs.hashes[index];
}

WireConn::WireConn(std::uint16_t port) : in_(1u << 30) {
  std::string error;
  fd_ = net::connect_loopback(port, &error);
  if (!fd_) throw std::runtime_error("perfbench: connect: " + error);
}

bool WireConn::send(const std::string& payload) {
  out_.clear();
  net::append_frame(out_, payload);
  return net::send_all(fd_.get(), out_.data(), out_.size());
}

int WireConn::receive(std::string* payload, Clock::time_point deadline) {
  for (;;) {
    if (in_.next(payload)) return 1;
    const auto left = deadline - Clock::now();
    if (left <= Clock::duration::zero()) return 0;
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
    timespec ts{static_cast<time_t>(ns / 1000000000),
                static_cast<long>(ns % 1000000000)};
    pollfd p{fd_.get(), POLLIN, 0};
    const int ready = ppoll(&p, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) return -1;
    if (ready <= 0) continue;
    char buf[64 * 1024];
    const ssize_t got = ::recv(fd_.get(), buf, sizeof buf, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return -1;
    }
    in_.feed(buf, static_cast<std::size_t>(got));
  }
}

Phase drive(const std::vector<WireConn*>& conns, const Refs& refs,
            const Load& load, std::uint64_t seed, SpanRecorder& rec) {
  const bool open_loop = load.rate > 0;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(load.secs));
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kTimeoutS));
  const std::size_t cap = open_loop ? kMaxInflightPerConn : load.depth;
  std::vector<Phase> per(conns.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      WireConn& conn = *conns[c];
      Phase& ph = per[c];
      std::mt19937_64 rng(mix(seed ^ (0x5eed0000ull + c)));
      std::exponential_distribution<double> gap(
          open_loop ? load.rate / static_cast<double>(conns.size()) : 1.0);
      std::uniform_int_distribution<std::size_t> pick(0,
                                                      refs.seeds.size() - 1);
      auto next_gap = [&] {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(gap(rng)));
      };
      struct Pending {
        Clock::time_point t_ref;   // latency origin
        Clock::time_point t_sent;  // timeout origin
        std::size_t index;
      };
      std::deque<Pending> inflight;
      std::uint64_t sent = 0;
      Clock::time_point due = open_loop ? start + next_gap() : start;
      std::this_thread::sleep_until(start);
      std::string reply;
      bool alive = true;
      auto may_send = [&](Clock::time_point now) {
        if (inflight.size() >= cap) return false;
        if (open_loop) return due < end && due <= now;
        return now < end && (load.quota == 0 || sent < load.quota);
      };
      while (alive) {
        auto now = Clock::now();
        while (may_send(now)) {
          const std::size_t index = pick(rng);
          if (!conn.send(refs.frames[index])) {
            ph.log.fail();
            alive = false;
            break;
          }
          ++sent;
          const auto t_sent = Clock::now();
          if (open_loop) {
            ph.lag_ms.push_back(1e3 * seconds(due, t_sent));
            inflight.push_back({due, t_sent, index});
            due += next_gap();
          } else {
            inflight.push_back({t_sent, t_sent, index});
          }
          now = t_sent;
        }
        if (!alive) break;
        if (inflight.empty()) {
          if (!open_loop || due >= end) break;
          std::this_thread::sleep_until(due);
          continue;
        }
        const auto give_up = inflight.front().t_sent + timeout;
        const bool more_due =
            open_loop && due < end && inflight.size() < cap;
        const int got =
            conn.receive(&reply, more_due ? std::min(due, give_up) : give_up);
        now = Clock::now();
        if (got == 1) {
          const Pending p = inflight.front();
          inflight.pop_front();
          rec.add("wire.lifecycle", p.t_sent, now, 0,
                  rec.enabled() ? rec.new_lifecycle() : 0);
          if (reply_ok(refs, p.index, reply)) {
            ph.log.ok(1e3 * seconds(p.t_ref, now));
            if (now <= end) ++ph.in_window;
          } else {
            ph.log.fail();
          }
        } else if (got < 0 || now >= give_up) {
          alive = false;
        }
      }
      for (std::size_t i = 0; i < inflight.size(); ++i) ph.log.fail();
      if (!alive) {
        std::fprintf(stderr, "perfbench: connection %zu lost or timed out\n",
                     c);
      }
    });
  }
  for (auto& t : threads) t.join();
  Phase total;
  total.window_s = load.secs;
  for (const Phase& p : per) {
    total.log.merge(p.log);
    total.in_window += p.in_window;
    total.lag_ms.insert(total.lag_ms.end(), p.lag_ms.begin(), p.lag_ms.end());
  }
  return total;
}

}  // namespace perfbench
