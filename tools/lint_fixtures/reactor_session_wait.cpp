// Seeded violation: SessionServer::wait() inside Reactor::loop().  wait()
// drives the scheduler until its session idles and sleeps while another
// thread is mid-slice on it; the reactor must park the request on
// notify_idle instead.  The reactor reaches the server through a local
// `sessions` reference, so the rule must see that name too.
// lint-expect: reactor-blocking
// lint-path: src/net/reactor.cpp
#include <cstdint>

namespace spinn::net {

struct SessionServer {
  bool wait(std::uint64_t id);
};

class Reactor {
  void loop();
  SessionServer& sessions_ref();
  bool stopping_ = false;
};

void Reactor::loop() {
  SessionServer& sessions = sessions_ref();
  while (!stopping_) {
    sessions.wait(1);
  }
}

}  // namespace spinn::net
