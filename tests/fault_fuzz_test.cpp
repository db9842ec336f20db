// Chaos fuzzing for the fault subsystem (PR 8 satellite): seeded random
// fault schedules — including hostile ones (killing the same core twice,
// schedules that exhaust the spare pool, healing healthy links,
// out-of-range coordinates) — must never crash, deadlock or wedge the
// server.  A session a schedule breaks ends `failed` with a quantified
// reason; every other session ends `ready`; and after the whole barrage
// the server still serves: no leaked sessions, no leaked engine slots, a
// fresh session still completes.  A second pass throws malformed `fault`
// lines at the socket transport and requires a parse error (never a
// dropped connection) for each.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/fault_controller.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "server/server.hpp"
#include "session_test_util.hpp"

namespace spinn {
namespace {

using test::spec_with;

FaultAction random_action(std::mt19937_64& rng, const server::SessionSpec& s,
                          TimeNs horizon) {
  FaultAction a;
  switch (rng() % 4) {
    case 0: a.kind = FaultAction::Kind::KillCore; break;
    case 1: a.kind = FaultAction::Kind::KillChip; break;
    case 2: a.kind = FaultAction::Kind::GlitchLink; break;
    default: a.kind = FaultAction::Kind::HealLink; break;
  }
  // Sample one past the machine edge now and then: out-of-range actions
  // must be rejected cleanly at schedule time, not detonate later.
  a.chip.x = static_cast<std::uint16_t>(rng() % (s.width + 1));
  a.chip.y = static_cast<std::uint16_t>(rng() % (s.height + 1));
  a.core = static_cast<CoreIndex>(rng() % (s.cores_per_chip + 1));
  a.dir = static_cast<LinkDir>(rng() % 6);
  a.at = static_cast<TimeNs>(rng() % static_cast<std::uint64_t>(horizon));
  a.glitch_rate_hz = (rng() % 2 == 0) ? 1e5 : 1e7;
  a.glitch_symbols = 1000 + rng() % 20000;
  // Conventional converters deadlock readily — mix them in so some trials
  // exercise the watchdog-expiry failure path.
  a.conventional = rng() % 4 == 0;
  return a;
}

TEST(FaultFuzz, RandomSchedulesNeverWedgeTheServer) {
  std::mt19937_64 rng(0xfa17u);
  server::SessionServer server;
  const TimeNs run = 20 * kMillisecond;

  int failed_sessions = 0;
  int rejected_actions = 0;
  for (int trial = 0; trial < 24; ++trial) {
    server::SessionSpec spec =
        spec_with(trial % 3 == 0 ? "chain" : "noise", 100 + trial,
                  trial % 2 == 0 ? sim::EngineKind::Serial
                                 : sim::EngineKind::Sharded,
                  /*shards=*/4, /*threads=*/2);
    std::string error;
    const server::SessionId id = server.open(spec, &error);
    ASSERT_NE(id, server::kInvalidSession) << error;

    const std::size_t n = 1 + rng() % 6;
    for (std::size_t i = 0; i < n; ++i) {
      const FaultAction a = random_action(rng, spec, run);
      error.clear();
      const bool in_range =
          a.chip.x < spec.width && a.chip.y < spec.height &&
          (a.kind != FaultAction::Kind::KillCore ||
           a.core < spec.cores_per_chip);
      if (server.fault(id, a, &error)) {
        EXPECT_TRUE(in_range) << describe(a);
      } else {
        // A rejected action names its reason and leaves the session whole.
        EXPECT_FALSE(in_range) << describe(a) << ": " << error;
        EXPECT_FALSE(error.empty());
        ++rejected_actions;
      }
    }
    ASSERT_TRUE(server.run(id, run));
    ASSERT_TRUE(server.wait(id));

    const server::SessionStatus st = server.status(id);
    if (st.state == server::SessionState::Failed) {
      // Quantified failure, never a silent stall: the reason names the
      // fault (or deadlock) that sank the session.
      EXPECT_FALSE(st.error.empty());
      ++failed_sessions;
    } else {
      EXPECT_EQ(st.state, server::SessionState::Ready) << st.error;
      EXPECT_EQ(st.bio_now, run);
    }
    server.drain(id);  // draining a chaos-stricken session is always safe
    EXPECT_TRUE(server.close(id));
  }

  // The barrage leaked nothing: every session is gone, and the engine pool
  // is caretaking only idle engines (bounded by its cap), not lost leases.
  const server::ServerStats stats = server.stats();
  EXPECT_EQ(stats.resident, 0u);
  EXPECT_EQ(stats.opened, 24u);
  EXPECT_EQ(stats.closed, 24u);
  EXPECT_GT(stats.engines.created + stats.engines.reused, 0u);

  // And the server still serves: a fresh fault-free session completes with
  // a clean stream after all the chaos.
  std::string error;
  const server::SessionId fresh =
      server.open(spec_with("chain", 7, sim::EngineKind::Serial), &error);
  ASSERT_NE(fresh, server::kInvalidSession) << error;
  ASSERT_TRUE(server.run(fresh, 10 * kMillisecond));
  ASSERT_TRUE(server.wait(fresh));
  EXPECT_EQ(server.status(fresh).state, server::SessionState::Ready);
  EXPECT_FALSE(server.drain(fresh).empty());
  EXPECT_TRUE(server.close(fresh));

  // The fuzz actually explored both regimes.
  EXPECT_GT(failed_sessions, 0);
  EXPECT_GT(rejected_actions, 0);
}

TEST(FaultFuzz, HostileScheduleExhaustsSparesWithoutLeaking) {
  // Deliberately sink every session: kill more cores than the machine has
  // spares.  Each session must fail with the quantified no-spare reason
  // and still tear down cleanly.
  server::SessionServer server;
  for (int round = 0; round < 3; ++round) {
    server::SessionSpec spec = spec_with("noise", 40 + round,
                                         sim::EngineKind::Serial);
    std::string error;
    const server::SessionId id = server.open(spec, &error);
    ASSERT_NE(id, server::kInvalidSession) << error;
    // 20 app cores on the 2x2x6 machine, 4 resident slices: killing a
    // core per millisecond eventually runs the spare pool dry.
    for (TimeNs ms = 0; ms < 20; ++ms) {
      FaultAction a;
      a.kind = FaultAction::Kind::KillChip;
      a.chip = ChipCoord{static_cast<std::uint16_t>(ms % 2),
                         static_cast<std::uint16_t>((ms / 2) % 2)};
      a.at = ms * kMillisecond;
      ASSERT_TRUE(server.fault(id, a, &error)) << error;
    }
    ASSERT_TRUE(server.run(id, 25 * kMillisecond));
    ASSERT_TRUE(server.wait(id));
    const server::SessionStatus st = server.status(id);
    EXPECT_EQ(st.state, server::SessionState::Failed);
    EXPECT_NE(st.error.find("fault @"), std::string::npos) << st.error;
    EXPECT_TRUE(server.close(id));
  }
  EXPECT_EQ(server.stats().resident, 0u);
}

TEST(FaultFuzz, MalformedWireFaultLinesAlwaysParseError) {
  net::NetServer srv;
  net::Client client(srv.port());
  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(net::parse_open_id(client.request("open app=chain seed=1"),
                                 &id));
  const std::string sid = std::to_string(id);

  const std::vector<std::string> malformed = {
      "fault",
      "fault " + sid,
      "fault " + sid + " kill",
      "fault " + sid + " kill core",
      "fault " + sid + " kill core=",
      "fault " + sid + " kill core=1",
      "fault " + sid + " kill core=1,1",
      "fault " + sid + " kill core=1,1,1,1",
      "fault " + sid + " kill core=a,b,c",
      "fault " + sid + " kill core=1,1,-2",
      "fault " + sid + " kill core=99999999999999999999,0,0",
      "fault " + sid + " kill chip=5,5",    // outside the 2x2 machine
      "fault " + sid + " kill core=0,0,99", // outside the chip
      "fault " + sid + " kill link=0,0,E",  // kill doesn't take a link
      "fault " + sid + " glitch core=0,0,1",
      "fault " + sid + " glitch link=0,0,Q",
      "fault " + sid + " glitch link=0,0,E rate=0",
      "fault " + sid + " glitch link=0,0,E rate=nan",
      "fault " + sid + " glitch link=0,0,E symbols=0",
      "fault " + sid + " glitch link=0,0,E conv=maybe",
      "fault " + sid + " heal link=0,0",
      "fault " + sid + " heal link=0,0,NE extra",
      "fault " + sid + " mend link=0,0,E",
      "fault " + sid + " kill core=0,0,1 at=-3",
      "fault " + sid + " kill core=0,0,1 at=2e12",
      "fault " + sid + " kill core=0,0,1 when=2",
      "fault 99999 kill core=0,0,1",        // unknown session
  };
  for (const std::string& line : malformed) {
    const std::string resp = client.request(line);
    EXPECT_EQ(resp.rfind("err ", 0), 0u) << line << " -> " << resp;
  }

  // Random token soup: whatever the tokens, the answer is a response
  // frame, never a dropped connection or a wedged reactor.
  std::mt19937_64 rng(0xb0d5u);
  const std::vector<std::string> pool = {
      "fault", sid,      "$",        "kill",       "glitch", "heal",
      "core=", "chip=",  "link=",    "0,0,E",      "1,1,5",  "at=",
      "at=5",  "rate=",  "conv=1",   "symbols=9",  "=",      ",",
      "E",     "kill",   "core=0,0", "chip=0,0,0", "at=at",  "9e99",
  };
  for (int i = 0; i < 200; ++i) {
    std::string line = "fault";
    const std::size_t n = 1 + rng() % 6;
    for (std::size_t t = 0; t < n; ++t) line += " " + pool[rng() % pool.size()];
    EXPECT_FALSE(client.request(line).empty()) << line;
  }

  // The connection and the session survived the barrage.
  EXPECT_EQ(client.request("ping"), "ok");
  EXPECT_EQ(client.request("run " + sid + " 5"), "ok");
  client.request("wait " + sid);
  const std::string status = client.request("status " + sid);
  EXPECT_NE(status.find("state=ready"), std::string::npos) << status;
  EXPECT_EQ(client.request("close " + sid), "ok");
}

}  // namespace
}  // namespace spinn
