// The serve workloads' load generator: lifecycle frames, the reference
// streams they are checked against, a deadline-aware wire connection, and
// the open- and closed-loop load loops.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "neural/network.hpp"
#include "server/server.hpp"

namespace perfbench {

/// Most lifecycles one open-loop connection keeps in flight; arrivals due
/// beyond it wait (and their wait counts in their latency).
inline constexpr std::size_t kMaxInflightPerConn = 32;
/// Distinct lifecycle seeds per run, each with its own reference stream.
inline constexpr int kSeedPool = 64;
/// A lifecycle unanswered this long fails, and its connection with it.
inline constexpr double kTimeoutS = 10.0;

enum class Kind { Chain, Wirenet };

/// The client-described network of serve_wirenet (bench_e14's wirenet),
/// as `net ... end` lines.
const std::vector<std::string>& wirenet_lines();

/// One whole lifecycle as one batch frame:
/// [net ... end] open; run $ 10; wait $; drain $; close $.
std::string lifecycle_frame(Kind kind, std::uint64_t seed);

/// Seeds of the lifecycles and the hash of each seed's reference stream.
struct Refs {
  Kind kind = Kind::Chain;
  std::vector<std::uint64_t> seeds;
  std::vector<std::uint64_t> hashes;
  std::vector<std::string> frames;
  std::shared_ptr<const spinn::neural::NetworkDescription> net;
  std::shared_ptr<const spinn::neural::NameMap> names;
};

/// Refs with no seeds yet: the kind, and for Kind::Wirenet the parsed
/// description and name map every lifecycle's spec shares.
Refs described(Kind kind);

spinn::server::SessionSpec spec_for(const Refs& refs, std::uint64_t seed);

/// References for kSeedPool seeds derived from `seed`, each computed by
/// one embedded-API lifecycle on a private SessionServer.
Refs make_refs(Kind kind, std::uint64_t seed,
               const spinn::server::ServerConfig& cfg, Result& out);

/// Times of one embedded lifecycle, split by server call.
struct EmbeddedTimes {
  double open_s = 0, build_s = 0, run_s = 0, drain_s = 0, close_s = 0;
  std::uint64_t hash = 0;
  bool ok = false;
  double total_s() const {
    return open_s + build_s + run_s + drain_s + close_s;
  }
};

/// One lifecycle through the embedded API, a span per call.  split_build:
/// open, wait (the build, no run queued), run + wait, drain, close.
/// Otherwise the wire's order: open, run + wait (build and run), drain,
/// close.
EmbeddedTimes embedded_lifecycle(spinn::server::SessionServer& srv,
                                 const spinn::server::SessionSpec& spec,
                                 SpanRecorder& rec, bool split_build);

/// Whether a wire reply is a correct lifecycle for reference `index`: the
/// expected blocks, no `err`, and a drained stream hashing to the
/// reference.
bool reply_ok(const Refs& refs, std::size_t index, const std::string& reply);

/// One client connection built on the library's framing helpers, with a
/// receive that gives up at a deadline, so one thread can keep an
/// open-loop schedule and collect replies on the same socket.
class WireConn {
 public:
  explicit WireConn(std::uint16_t port);

  bool send(const std::string& payload);
  /// 1: a reply is in *payload; 0: the deadline passed; -1: connection lost.
  int receive(std::string* payload, Clock::time_point deadline);

 private:
  spinn::net::Fd fd_;
  spinn::net::FrameDecoder in_;
  std::string out_;
};

/// How a load phase drives its connections.
struct Load {
  double rate = 0.0;        // > 0: open loop at this many lifecycles/s
  std::size_t depth = 1;    // closed loop: lifecycles in flight per conn
  double secs = 0.0;        // phase length
  std::uint64_t quota = 0;  // closed loop: sends per connection, 0 = none
};

/// What a load phase measured.
struct Phase {
  LatencyLog log;
  std::uint64_t in_window = 0;  // correct lifecycles answered in the window
  double window_s = 0.0;
  std::vector<double> lag_ms;  // open loop: how late each send went out
  double rate() const {
    return window_s > 0 ? static_cast<double>(in_window) / window_s : 0.0;
  }
};

/// Drives `conns`, one thread each.  Open loop: Poisson arrivals at
/// load.rate split evenly over the connections, latency from the
/// scheduled send time.  Closed loop: load.depth lifecycles in flight per
/// connection, latency from the actual send.
Phase drive(const std::vector<WireConn*>& conns, const Refs& refs,
            const Load& load, std::uint64_t seed, SpanRecorder& rec);

}  // namespace perfbench
