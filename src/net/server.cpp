#include "net/server.hpp"

#include <stdexcept>
#include <string>

#include "net/reactor.hpp"

namespace spinn::net {

NetServer::NetServer(const NetConfig& cfg)
    : cfg_(cfg), sessions_(cfg.session) {
  std::string error;
  listener_ = listen_loopback(cfg_.port, &port_, &error);
  if (!listener_) {
    throw std::runtime_error("net: cannot listen on 127.0.0.1:" +
                             std::to_string(cfg_.port) + " (" + error + ")");
  }
  // The reactor's constructor throws on fd exhaustion before any thread
  // exists, so ~NetServer never runs on a half-built object.
  reactor_ = std::make_unique<Reactor>(*this);
  // Submissions made off the reactor (the embedded API) wake it; its own
  // submissions are driven in the same iteration.
  sessions_.set_work_signal(reactor_->work_signal());
  reactor_->start();
}

NetServer::~NetServer() { stop(); }

void NetServer::stop() {
  stopping_.store(true, std::memory_order_release);
  reactor_->notify();
  // Serialise the join: concurrent stop() calls must not both join the
  // same std::thread (UB); the loser waits for the winner's join instead.
  MutexLock lk(&stop_mu_);
  reactor_->join();
}

NetStats NetServer::stats() const { return reactor_->stats(); }

}  // namespace spinn::net
