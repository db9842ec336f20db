// The socket transport's latency contract, in its own binary so ctest can
// run it alone (RUN_SERIAL): it bounds one wall-clock latency against
// another, and sibling cases sharing the cores would stretch one and not
// the other.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "sim/stats.hpp"

namespace spinn::net {
namespace {

// A heavy session must not starve its reactor's sockets: a drive burst
// yields to epoll once its wall-clock budget is spent, so another
// connection waits behind at most the slice in progress.  One reactor, so
// the pinging connection shares the thread that drives the heavy session.
TEST(NetServer, HeavySliceDoesNotStarveAnotherConnection) {
  NetConfig cfg;
  cfg.reactors = 1;
  NetServer srv(cfg);

  // The sim_e12 benchmark's machine and feed-forward projection, with the
  // noise at 80 Hz and no recurrent projection, on the sharded engine
  // driven by one thread: a 1 ms slice costs well over 10 ms of wall time,
  // and with no recurrence the load per slice is stationary once warm.
  NetBuilder nb;
  nb.poisson("noise", 6000, 80.0);
  nb.lif("exc", 18000);
  nb.project("noise", "exc", neural::Connector::fixed_probability(0.0045),
             neural::ValueDist::uniform(4.0, 8.0),
             neural::ValueDist::fixed(1.0));
  std::vector<std::string> lines = nb.lines();
  lines.push_back(
      "open app=@ seed=3 width=12 height=12 cores=4 neurons_per_core=256 "
      "link_flight_ns=1000 engine=sharded shards=4 threads=1");
  lines.push_back("wait $");  // built before the clock starts
  Client heavy(srv.port());
  const auto opened = Client::split_response(heavy.batch(lines));
  ASSERT_EQ(opened.size(), 3u);
  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(opened[1], &id)) << opened[1];
  const std::string sid = std::to_string(id);

  // Past the start-up transient, calibrate the slice: one 1 ms run at a
  // time, so nothing else shares the reactor.
  ASSERT_EQ(heavy.batch({"run " + sid + " 8", "wait " + sid}),
            "ok\nok t=" + std::to_string(8 * kMillisecond));
  constexpr int kSlices = 12;
  std::vector<double> slice_ns;
  for (int i = 0; i < kSlices; ++i) {
    const std::int64_t start = WallClock::now_ns();
    ASSERT_EQ(heavy.request("run " + sid + " 1"), "ok");
    ASSERT_NE(heavy.request("wait " + sid), "");
    slice_ns.push_back(static_cast<double>(WallClock::now_ns() - start));
  }
  EXPECT_GE(sim::percentile(slice_ns, 0.5), 10e6)
      << "the net no longer makes a heavy slice";
  const double longest_slice_ns = sim::percentile(slice_ns, 1.0);

  // Now one long run, every slice in one request, while another
  // connection pings back to back.
  Client pinger(srv.port());
  ASSERT_EQ(pinger.request("ping"), "ok");  // adopted by the reactor
  std::atomic<bool> done{false};
  std::thread run_heavy([&] {
    EXPECT_EQ(heavy.batch({"run " + sid + " " + std::to_string(kSlices),
                           "wait " + sid}),
              "ok\nok t=" + std::to_string((8 + 2 * kSlices) * kMillisecond));
    done.store(true, std::memory_order_release);
  });
  std::vector<double> rtt_ns;
  while (!done.load(std::memory_order_acquire)) {
    const std::int64_t start = WallClock::now_ns();
    if (pinger.request("ping") != "ok") {
      ADD_FAILURE() << "ping lost";  // keep going to the join
      break;
    }
    rtt_ns.push_back(static_cast<double>(WallClock::now_ns() - start));
  }
  run_heavy.join();

  // The reactor answered between slices, not once the run was over...
  EXPECT_GE(rtt_ns.size(), static_cast<std::size_t>(kSlices / 2));
  // ...and no ping waited behind more than the slice in progress.
  EXPECT_LT(sim::percentile(rtt_ns, 0.99), 2.0 * longest_slice_ns)
      << rtt_ns.size() << " pings; longest calibrated slice "
      << longest_slice_ns / 1e6 << " ms";
}

}  // namespace
}  // namespace spinn::net
