#include "net/server.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "net/reactor.hpp"

namespace spinn::net {

namespace {

std::size_t resolve_reactor_count(const NetConfig& cfg) {
  if (cfg.reactors != 0) return cfg.reactors;
  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t cap = hw == 0 ? 1 : hw;
  return cap < 4 ? cap : 4;
}

}  // namespace

NetServer::NetServer(const NetConfig& cfg)
    : cfg_(cfg), sessions_(cfg.session) {
  std::string error;
  listener_ = listen_loopback(cfg_.port, &port_, &error);
  if (!listener_) {
    throw std::runtime_error("net: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + " (" + error + ")");
  }
  const std::size_t n = resolve_reactor_count(cfg_);
  // Construct every reactor (epoll set + wakeup pipe, throws on fd
  // exhaustion) before starting any thread: a failed sibling must not
  // leak a running loop, and ~NetServer never runs on a half-built object.
  reactors_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
  }
  // Submissions made off the reactors (the embedded API) wake one of
  // them; a reactor's own submissions are driven in the same iteration.
  sessions_.set_work_signal(Reactor::work_signal(reactors_));
  for (auto& r : reactors_) r->start();
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stopping_.store(true, std::memory_order_release);
  for (auto& r : reactors_) r->notify();
  // Serialise the joins: concurrent stop() calls must not both join the
  // same std::thread (UB); the loser waits for the winner's joins instead.
  MutexLock lk(&stop_mu_);
  for (auto& r : reactors_) r->join();
}

NetStats NetServer::stats() const {
  // Shards are summed one lock at a time (never two shard locks held at
  // once), so this nests safely under a reactor answering `netstats` or
  // `metrics` from inside its own loop.
  NetStats out;
  for (const auto& r : reactors_) {
    const NetStats s = r->stats_shard();
    out.accepted += s.accepted;
    out.refused += s.refused;
    out.shed_slow += s.shed_slow;
    out.shed_flood += s.shed_flood;
    out.frames_in += s.frames_in;
    out.frames_out += s.frames_out;
    out.batches += s.batches;
    out.faults += s.faults;
    out.bytes_in += s.bytes_in;
    out.bytes_out += s.bytes_out;
  }
  out.connections = open_conns_.load(std::memory_order_relaxed);
  out.reactors = reactors_.size();
  return out;
}

}  // namespace spinn::net
