// The socket-transport suite (ISSUE 4).
//
// The contract extends the server suite's determinism bar across the wire:
// a spike stream drained over the loopback socket transport must be
// bit-identical to the same spec run standalone — at pipeline depth 1 and
// depth >= 4, with >= 8 concurrent connections, through batch frames and
// through incremental mid-run drains.  On top of that the transport's own
// mechanics are pinned: length-prefixed framing survives arbitrary
// segmentation, batches answer as one frame with `$` binding, parked waits
// don't stall other connections, slow readers and floods are shed, and the
// cost-aware admission policy is reachable from the wire.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "obs/registry.hpp"
#include "sim/stats.hpp"
#include "session_test_util.hpp"

namespace spinn::net {
namespace {

using test::Events;
using test::same_events;
using test::spec_with;

/// The `open` command line for a spec (inverse of apply_kv for the fields
/// these tests vary).
std::string open_line(const server::SessionSpec& spec) {
  std::string line = "open app=" + spec.app +
                     " seed=" + std::to_string(spec.seed);
  if (spec.engine == sim::EngineKind::Sharded) {
    line += " engine=sharded shards=" + std::to_string(spec.shards) +
            " threads=" + std::to_string(spec.threads);
  }
  return line;
}

// ---- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsThroughArbitrarySegmentation) {
  std::string wire;
  append_frame(wire, "hello");
  append_frame(wire, "");  // empty payload is a legal frame
  std::string big(100000, 'x');
  append_frame(wire, big);

  FrameDecoder dec(1u << 20);
  // Byte-at-a-time feed: no frame may depend on segment boundaries.
  std::vector<std::string> out;
  std::string payload;
  for (const char c : wire) {
    dec.feed(&c, 1);
    while (dec.next(&payload)) out.push_back(payload);
  }
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], "hello");
  EXPECT_EQ(out[1], "");
  EXPECT_EQ(out[2], big);
  EXPECT_EQ(dec.buffered(), 0u);
  EXPECT_FALSE(dec.overflowed());
}

TEST(Framing, OversizedFramePoisonsTheDecoder) {
  std::string wire;
  append_frame(wire, std::string(2048, 'y'));
  FrameDecoder dec(1024);
  dec.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_FALSE(dec.next(&payload));
  EXPECT_TRUE(dec.overflowed());
  // Poisoned for good: even a following valid frame stays unread.
  std::string more;
  append_frame(more, "ok");
  dec.feed(more.data(), more.size());
  EXPECT_FALSE(dec.next(&payload));
}

TEST(Framing, SpikeBlocksRoundTrip) {
  Events events = {{1234567, 42}, {2 * kMillisecond, 0x800}, {0, 0}};
  Events parsed;
  ASSERT_TRUE(parse_spikes(format_spikes(events), &parsed));
  EXPECT_TRUE(same_events(events, parsed));
  ASSERT_TRUE(parse_spikes(format_spikes({}), &parsed));
  EXPECT_TRUE(parsed.empty());
  EXPECT_FALSE(parse_spikes("spikes 2\ns 1 2", &parsed));  // truncated
  EXPECT_FALSE(parse_spikes("ok", &parsed));
}

// ---- single-command round-trips --------------------------------------------

TEST(NetServer, LifecycleOverTheSocket) {
  NetServer srv;
  Client client(srv.port());

  EXPECT_EQ(client.request("ping"), "ok");
  EXPECT_EQ(client.request("apps"), "apps chain noise stdp");

  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(client.request("open app=chain seed=7"), &id));
  ASSERT_NE(id, server::kInvalidSession);
  const std::string sid = std::to_string(id);

  EXPECT_EQ(client.request("run " + sid + " 20"), "ok");
  EXPECT_EQ(client.request("wait " + sid),
            "ok t=" + std::to_string(20 * kMillisecond));

  Events events;
  ASSERT_TRUE(parse_spikes(client.request("drain " + sid), &events));
  const Events reference = server::run_standalone(
      spec_with("chain", 7, sim::EngineKind::Serial), 20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(events, reference));

  const std::string status = client.request("status " + sid);
  EXPECT_NE(status.find("state=ready"), std::string::npos);
  EXPECT_NE(status.find("load_ok=1"), std::string::npos);

  EXPECT_EQ(client.request("close " + sid), "ok");
  EXPECT_EQ(client.request("close " + sid),
            "err unknown or already closed");
  EXPECT_EQ(client.request("bogus 1"), "err unknown command 'bogus'");
  EXPECT_EQ(client.request("wait 999"), "err unknown session");
  EXPECT_EQ(client.request(""), "err empty request");
}

TEST(NetServer, NetstatsReportsEveryCounter) {
  NetServer srv;
  Client client(srv.port());
  ASSERT_EQ(client.request("ping"), "ok");
  const std::string resp = client.request("netstats");
  // Every NetStats counter must appear on the wire — a counter the server
  // pays to maintain but never reports is dead weight (bytes_in/bytes_out
  // were exactly that).
  for (const char* field :
       {"accepted=", "refused=", "shed_slow=", "shed_flood=", "frames_in=",
        "frames_out=", "batches=", "faults=", "bytes_in=", "bytes_out=",
        "connections="}) {
    EXPECT_NE(resp.find(field), std::string::npos) << field;
  }
  // The asking connection is live (non-doomed) while its own netstats
  // executes.
  EXPECT_NE(resp.find("connections=1"), std::string::npos) << resp;
  // The byte counters actually move: the ping frame cost bytes both ways.
  EXPECT_EQ(resp.find("bytes_in=0 "), std::string::npos) << resp;
  EXPECT_EQ(resp.find("bytes_out=0 "), std::string::npos) << resp;
}

TEST(NetServer, OverflowingSessionIdIsRejectedNotAliased) {
  NetServer srv;
  Client client(srv.port());
  // strtoull would saturate this to ULLONG_MAX and "resolve" it; the
  // hardened parse must treat it as an unusable token instead.
  EXPECT_EQ(client.request("wait 99999999999999999999999"),
            "err usage: wait <id|$> ...");
}

// ---- batches ---------------------------------------------------------------

TEST(NetServer, BatchRunsAWholeLifecycleInOneRoundTrip) {
  NetServer srv;
  Client client(srv.port());

  const server::SessionSpec spec =
      spec_with("noise", 42, sim::EngineKind::Sharded, 2, 2);
  const std::string payload = client.batch({
      open_line(spec),
      "run $ 15",
      "wait $",
      "drain $",
      "close $",
  });
  const auto blocks = Client::split_response(payload);
  ASSERT_EQ(blocks.size(), 5u);
  server::SessionId id = server::kInvalidSession;
  EXPECT_TRUE(parse_open_id(blocks[0], &id));
  EXPECT_EQ(blocks[1], "ok");  // the fused open_and_run's run response
  EXPECT_EQ(blocks[2], "ok t=" + std::to_string(15 * kMillisecond));
  Events events;
  ASSERT_TRUE(parse_spikes(blocks[3], &events));
  EXPECT_EQ(blocks[4], "ok");

  const Events reference = server::run_standalone(spec, 15 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(events, reference));

  EXPECT_GE(srv.stats().batches, 1u);
}

TEST(NetServer, BatchDollarWithoutOpenFailsCleanly) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch({
      "open app=bogus",  // fails: $ never binds
      "run $ 5",
      "close $",
  }));
  ASSERT_EQ(blocks.size(), 3u);
  // Batch errors carry the 1-based line index of the failing command.
  EXPECT_EQ(blocks[0], "err @1 unknown app 'bogus'");
  EXPECT_EQ(blocks[1], "err @2 no successful open in this batch");
  EXPECT_EQ(blocks[2], "err @3 no successful open in this batch");
}

// A failed open UNBINDS `$`: commands after it must not silently fall
// through to an earlier session opened in the same batch.
TEST(NetServer, FailedOpenUnbindsDollar) {
  NetServer srv;
  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch({
      "open app=chain seed=1",  // succeeds: $ = this id
      "open app=bogus",         // fails: $ unbinds
      "close $",                // must NOT close the first session
  }));
  ASSERT_EQ(blocks.size(), 3u);
  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(blocks[0], &id));
  EXPECT_EQ(blocks[1], "err @2 unknown app 'bogus'");
  EXPECT_EQ(blocks[2], "err @3 no successful open in this batch");
  // The first session is alive and well.
  const std::string status = client.request("status " + std::to_string(id));
  EXPECT_EQ(status.rfind("id=", 0), 0u) << status;
  EXPECT_EQ(status.find("state=closed"), std::string::npos) << status;
  EXPECT_EQ(client.request("close " + std::to_string(id)), "ok");
}

// ---- the determinism contract over the wire --------------------------------

struct WireSession {
  server::SessionSpec spec;
  TimeNs run = 0;
};

/// Drive one session over its own connection at the given pipeline depth
/// and return the concatenated drained stream.
Events drive_over_socket(std::uint16_t port, const WireSession& ws,
                         int depth) {
  Client client(port);
  const std::string run_ms =
      std::to_string(static_cast<double>(ws.run) / kMillisecond);
  Events stream;
  Events chunk;
  if (depth <= 1) {
    server::SessionId id = server::kInvalidSession;
    EXPECT_TRUE(parse_open_id(client.request(open_line(ws.spec)), &id));
    EXPECT_EQ(client.request("run " + std::to_string(id) + " " + run_ms),
              "ok");
    // Stream incrementally while the session runs (mid-run drains).
    for (;;) {
      const std::string st =
          client.request("status " + std::to_string(id));
      EXPECT_TRUE(parse_spikes(
          client.request("drain " + std::to_string(id)), &chunk));
      stream.insert(stream.end(), chunk.begin(), chunk.end());
      // " t=" with the leading space: "target=..." must not match.
      if (st.find("state=ready") != std::string::npos &&
          st.find(" t=" + std::to_string(ws.run) + " ") !=
              std::string::npos) {
        break;
      }
    }
    EXPECT_EQ(client.request("close " + std::to_string(id)), "ok");
    return stream;
  }
  // Pipelined: `depth` frames in flight before the first response is read.
  // The batch opens-and-runs, the trailing frames wait/drain/close via `$`
  // — no, `$` binds per frame; later frames address the id parsed from the
  // first response.  So pipeline the id-free prefix, then the rest.
  EXPECT_TRUE(client.send(open_line(ws.spec) + "\nrun $ " + run_ms +
                          "\nwait $\ndrain $"));
  EXPECT_TRUE(client.send("ping"));
  EXPECT_TRUE(client.send("ping"));
  EXPECT_TRUE(client.send("apps"));
  const auto blocks = Client::split_response(client.receive());
  EXPECT_EQ(blocks.size(), 4u);
  server::SessionId id = server::kInvalidSession;
  EXPECT_TRUE(parse_open_id(blocks[0], &id));
  EXPECT_TRUE(parse_spikes(blocks[3], &chunk));
  stream.insert(stream.end(), chunk.begin(), chunk.end());
  EXPECT_EQ(client.receive(), "ok");
  EXPECT_EQ(client.receive(), "ok");
  EXPECT_EQ(client.receive(), "apps chain noise stdp");
  // A second pipelined wave: drain the (idle) tail and close.
  EXPECT_TRUE(client.send("drain " + std::to_string(id)));
  EXPECT_TRUE(client.send("close " + std::to_string(id)));
  EXPECT_TRUE(client.send("ping"));
  EXPECT_TRUE(parse_spikes(client.receive(), &chunk));
  stream.insert(stream.end(), chunk.begin(), chunk.end());
  EXPECT_EQ(client.receive(), "ok");
  EXPECT_EQ(client.receive(), "ok");
  return stream;
}

/// Parse a `metrics` response (`metrics <n>` then `name value` lines) into
/// a map; EXPECTs the announced row count matches.
std::map<std::string, std::uint64_t> parse_metrics_response(
    const std::string& resp) {
  std::map<std::string, std::uint64_t> kv;
  std::size_t pos = resp.find('\n');
  EXPECT_EQ(resp.rfind("metrics ", 0), 0u) << resp.substr(0, 40);
  if (pos == std::string::npos) return kv;
  const std::uint64_t announced =
      std::strtoull(resp.c_str() + 8, nullptr, 10);
  while (pos != std::string::npos) {
    const std::size_t start = pos + 1;
    pos = resp.find('\n', start);
    const std::string line = resp.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    const std::size_t sp = line.find(' ');
    if (sp == std::string::npos) continue;
    kv[line.substr(0, sp)] =
        std::strtoull(line.c_str() + sp + 1, nullptr, 10);
  }
  EXPECT_EQ(kv.size(), announced);
  return kv;
}

/// Parse the single-line `netstats` response (`net k=v k=v ...`).
std::map<std::string, std::uint64_t> parse_netstats_response(
    const std::string& resp) {
  std::map<std::string, std::uint64_t> kv;
  std::size_t i = resp.find(' ');
  while (i != std::string::npos) {
    const std::size_t start = i + 1;
    const std::size_t eq = resp.find('=', start);
    if (eq == std::string::npos) break;
    i = resp.find(' ', eq);
    kv[resp.substr(start, eq - start)] =
        std::strtoull(resp.c_str() + eq + 1, nullptr, 10);
  }
  return kv;
}

/// The consistency bar a scrape must clear at any instant under load:
/// correlated counters may never be seen torn (a frame counted without its
/// bytes) — this is what the grouped updates under one stats lock
/// guarantee.
void expect_consistent_counters(
    const std::map<std::string, std::uint64_t>& kv, const char* frames_in,
    const char* bytes_in, const char* frames_out, const char* bytes_out) {
  const auto get = [&](const char* k) {
    const auto it = kv.find(k);
    return it == kv.end() ? std::uint64_t{0} : it->second;
  };
  // Every counted inbound frame arrived complete: 4-byte header minimum.
  EXPECT_GE(get(bytes_in), get(frames_in) * kFrameHeader);
  // Every counted outbound frame carried header + a >= 2-byte response.
  EXPECT_GE(get(bytes_out), get(frames_out) * (kFrameHeader + 2));
}

/// The transport counters of NetServer::stats(), keyed as `netstats`
/// names them.
std::map<std::string, std::uint64_t> netstats_map(const NetStats& s) {
  return {{"accepted", s.accepted},   {"frames_in", s.frames_in},
          {"frames_out", s.frames_out}, {"bytes_in", s.bytes_in},
          {"bytes_out", s.bytes_out}};
}

/// Every key in `keys` is present in `now` and did not fall since `prev`.
void expect_monotone(const std::map<std::string, std::uint64_t>& now,
                     const std::map<std::string, std::uint64_t>& prev,
                     std::initializer_list<const char*> keys) {
  for (const char* k : keys) {
    ASSERT_TRUE(now.count(k) != 0) << k;
    const auto it = prev.find(k);
    if (it != prev.end()) {
      EXPECT_GE(now.at(k), it->second) << k << " went backwards";
    }
  }
}

/// The acceptance bar: >= 8 concurrent connections, mixed serial/sharded
/// engines, every stream bit-identical to the spec run standalone.  With
/// `scrape`, a 9th connection polls `metrics` and `netstats` continuously
/// throughout, and the same observer thread reads NetServer::stats()
/// directly (off the reactor, across its stats lock): observation must
/// not perturb the streams, counters must be monotone across scrapes, and
/// no scrape may see torn totals.
void run_concurrent_equivalence(int depth, bool scrape = false) {
  NetConfig cfg;
  cfg.session.max_sessions = 8;
  NetServer srv(cfg);

  std::atomic<bool> stop_scraping{false};
  std::thread observer;
  if (scrape) {
    observer = std::thread([&] {
      Client poll(srv.port());
      std::map<std::string, std::uint64_t> prev_m;
      std::map<std::string, std::uint64_t> prev_n;
      std::map<std::string, std::uint64_t> prev_s;
      int scrapes = 0;
      while (!stop_scraping.load(std::memory_order_acquire)) {
        const auto m = parse_metrics_response(poll.request("metrics"));
        expect_consistent_counters(m, "net.frames_in", "net.bytes_in",
                                   "net.frames_out", "net.bytes_out");
        expect_monotone(m, prev_m,
                        {"net.accepted", "net.frames_in", "net.frames_out",
                         "net.bytes_in", "net.bytes_out", "server.opened",
                         "server.closed", "net.request_ns.count"});
        prev_m = m;
        const auto n = parse_netstats_response(poll.request("netstats"));
        expect_consistent_counters(n, "frames_in", "bytes_in", "frames_out",
                                   "bytes_out");
        expect_monotone(n, prev_n,
                        {"accepted", "frames_in", "frames_out", "bytes_in",
                         "bytes_out"});
        prev_n = n;
        const auto st = netstats_map(srv.stats());
        expect_consistent_counters(st, "frames_in", "bytes_in",
                                   "frames_out", "bytes_out");
        expect_monotone(st, prev_s,
                        {"accepted", "frames_in", "frames_out", "bytes_in",
                         "bytes_out"});
        prev_s = st;
        ++scrapes;
      }
      EXPECT_GT(scrapes, 0);
    });
  }

  const std::vector<WireSession> sessions = {
      {spec_with("noise", 1, sim::EngineKind::Serial), 25 * kMillisecond},
      {spec_with("noise", 1, sim::EngineKind::Sharded, 4, 2),
       25 * kMillisecond},
      {spec_with("noise", 42, sim::EngineKind::Sharded, 2, 2),
       25 * kMillisecond},
      {spec_with("chain", 7, sim::EngineKind::Serial), 25 * kMillisecond},
      {spec_with("chain", 7, sim::EngineKind::Sharded, 8, 2),
       25 * kMillisecond},
      {spec_with("stdp", 9, sim::EngineKind::Serial), 25 * kMillisecond},
      {spec_with("stdp", 9, sim::EngineKind::Sharded, 4, 2),
       25 * kMillisecond},
      {spec_with("noise", 20260726, sim::EngineKind::Serial),
       25 * kMillisecond},
  };

  std::vector<Events> streams(sessions.size());
  std::vector<std::thread> clients;
  clients.reserve(sessions.size());
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    clients.emplace_back([&, i] {
      streams[i] = drive_over_socket(srv.port(), sessions[i], depth);
    });
  }
  for (auto& t : clients) t.join();
  if (observer.joinable()) {
    stop_scraping.store(true, std::memory_order_release);
    observer.join();
  }

  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SCOPED_TRACE("connection " + std::to_string(i) +
                 " app=" + sessions[i].spec.app);
    const Events reference =
        server::run_standalone(sessions[i].spec, sessions[i].run);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(same_events(streams[i], reference))
        << "stream size " << streams[i].size() << " vs reference "
        << reference.size();
  }
  const NetStats st = srv.stats();
  EXPECT_EQ(st.accepted, sessions.size() + (scrape ? 1 : 0));
  EXPECT_EQ(st.shed_slow, 0u);
  EXPECT_EQ(st.shed_flood, 0u);
}

TEST(NetServer, EightConnectionsBitIdenticalAtDepth1) {
  run_concurrent_equivalence(1);
}

TEST(NetServer, EightConnectionsBitIdenticalAtDepth4) {
  run_concurrent_equivalence(4);
}

// Observation must be free of observable effect: the same eight streams,
// bit-identical, while a ninth connection scrapes `metrics` and `netstats`
// as fast as the server will answer and its thread also reads
// NetServer::stats() directly.  Run under TSan this is also the data-race
// proof for the whole telemetry path (sharded counters, seqlock trace
// rings, grouped stat updates, the stats lock taken off the reactor)
// against live traffic.
TEST(NetServer, EightConnectionsBitIdenticalUnderContinuousScrape) {
  run_concurrent_equivalence(/*depth=*/4, /*scrape=*/true);
}

TEST(NetServer, MetricsVerbReportsPinnedFieldsAndRegistryRows) {
  NetServer srv;
  Client client(srv.port());
  // One full session round-trip so the request histogram has samples and
  // the server-side gauges have moved off zero.
  ASSERT_EQ(client.request("ping"), "ok");
  const auto m = parse_metrics_response(client.request("metrics"));
  // The derived rows are part of the wire contract: scrapers key on these
  // exact names, so renaming or dropping one is a breaking change.
  for (const char* field :
       {"net.accepted", "net.refused", "net.shed_slow", "net.shed_flood",
        "net.frames_in", "net.frames_out", "net.batches", "net.faults",
        "net.bytes_in", "net.bytes_out", "net.connections",
        "server.opened", "server.rejected", "server.rejected_cost",
        "server.closed", "server.evicted", "server.resident",
        "server.cost_resident", "server.cost_budget", "server.queue_depth",
        "server.engines.created", "server.engines.reused",
        "server.engines.idle"}) {
    EXPECT_TRUE(m.count(field) != 0) << field;
  }
  // Registry-backed rows ride along: the reactor registers its request
  // histogram on startup and the ping above put a sample in it.
  ASSERT_TRUE(m.count("net.request_ns.count") != 0);
  EXPECT_GE(m.at("net.request_ns.count"), 1u);
  EXPECT_TRUE(m.count("net.request_ns.p50") != 0);
  EXPECT_TRUE(m.count("net.request_ns.p99") != 0);
  EXPECT_EQ(m.at("net.accepted"), 1u);
  // A second scrape never goes backwards.
  const auto m2 = parse_metrics_response(client.request("metrics"));
  EXPECT_GE(m2.at("net.frames_in"), m.at("net.frames_in"));
  EXPECT_GE(m2.at("net.request_ns.count"), m.at("net.request_ns.count"));
}

// The histogram rows must describe what a client sees.  A scripted chain
// session sends one batch frame per lifecycle (open, run, wait, close), so
// the client's round trip is both the lifecycle and the request latency.
// Build and time-to-first-spike happen inside the lifecycle, so their p50
// cannot exceed its p50, and every row must be within 10x of the client's
// figure: a histogram whose bins are wider than the values it sees reports
// only the interpolation inside one bin, off by orders of magnitude.
// Build is pure CPU on one thread, while a round trip also waits on thread
// handoffs that stretch with the host's load (6 copies of this test on 4
// cores put build p50 at 1/25 of the lifecycle p50), so build's floor is
// taken from the fastest lifecycle.  The registry is process-global and
// earlier cases in the same process leave their own samples in it, so each
// p50 is taken over this case's samples alone: the bin counts after its
// lifecycles minus the bin counts before them.
TEST(NetServer, HistogramRowsMatchClientMeasuredLatency) {
  obs::Registry& registry = obs::Registry::global();
  const obs::Histogram* hists[] = {&registry.histogram("server.build_ns"),
                                   &registry.histogram("server.ttfs_ns"),
                                   &registry.histogram("net.request_ns")};
  obs::Histogram::Bins before[3];
  for (int h = 0; h < 3; ++h) before[h] = hists[h]->bins();

  NetServer srv;
  Client client(srv.port());
  std::vector<double> lifecycle_ns;
  for (int i = 1; i <= 200; ++i) {
    const std::int64_t t0 = WallClock::now_ns();
    const auto blocks = Client::split_response(client.batch(
        {"open app=chain seed=" + std::to_string(i), "run $ 10", "wait $",
         "close $"}));
    lifecycle_ns.push_back(static_cast<double>(WallClock::now_ns() - t0));
    ASSERT_EQ(blocks.size(), 4u);
    ASSERT_EQ(blocks[3], "ok");
  }
  const double lifecycle_p50 = sim::percentile(lifecycle_ns, 0.5);
  const double lifecycle_min = sim::percentile(lifecycle_ns, 0.0);
  double own_p50[3];
  for (int h = 0; h < 3; ++h) {
    obs::Histogram::Bins own = hists[h]->bins();
    for (std::size_t b = 0; b < own.size(); ++b) own[b] -= before[h][b];
    EXPECT_GE(std::accumulate(own.begin(), own.end(), std::uint64_t{0}),
              200u);
    own_p50[h] = static_cast<double>(obs::Histogram::percentile(own, 0.5));
  }
  const double build = own_p50[0];
  const double ttfs = own_p50[1];
  const double request = own_p50[2];
  EXPECT_LE(build, lifecycle_p50);
  EXPECT_GE(build * 10, lifecycle_min);
  EXPECT_LE(ttfs, lifecycle_p50);
  EXPECT_GE(ttfs * 10, lifecycle_p50);
  EXPECT_LE(request, lifecycle_p50 * 10);
  EXPECT_GE(request * 10, lifecycle_p50);
}

TEST(NetServer, TraceVerbControlsTheTracerAndDumpsChromeJson) {
  NetServer srv;
  Client client(srv.port());
  EXPECT_EQ(client.request("trace stop"), "ok trace off");
  EXPECT_EQ(client.request("trace start"), "ok trace on");
  // Traffic while enabled leaves spans behind: the ping's response flush
  // is itself a traced event.
  ASSERT_EQ(client.request("ping"), "ok");
  const std::string dump = client.request("trace dump");
  EXPECT_EQ(dump.rfind("{\"traceEvents\":[", 0), 0u) << dump.substr(0, 40);
  EXPECT_NE(dump.find("net.flush"), std::string::npos);
  EXPECT_NE(dump.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  EXPECT_EQ(client.request("trace"), "err usage: trace start|stop|dump");
  EXPECT_EQ(client.request("trace bogus"),
            "err usage: trace start|stop|dump");
}

// Deployments serving untrusted clients can pin tracing off: the verb is
// rejected wholesale — control and dump alike — so a remote peer can
// neither toggle process-wide state nor read span timings.
TEST(NetServer, TraceVerbIsRejectedWhenDisabledByConfig) {
  NetConfig cfg;
  cfg.allow_trace = false;
  NetServer srv(cfg);
  Client client(srv.port());
  EXPECT_EQ(client.request("trace start"), "err trace disabled");
  EXPECT_EQ(client.request("trace dump"), "err trace disabled");
  // The metrics surface stays available regardless.
  const auto m = parse_metrics_response(client.request("metrics"));
  EXPECT_TRUE(m.count("net.accepted") != 0);
}

/// The keys of a parsed response, in order (values move between scrapes).
std::vector<std::string> keys_of(
    const std::map<std::string, std::uint64_t>& kv) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : kv) keys.push_back(key);
  return keys;
}

// `netstats`, `metrics` and `trace` are dispatched like every other verb:
// tokenized, so a trailing newline or stray blanks answer exactly as the
// trimmed line does (they used to miss an exact-match branch and fall
// through to `err usage: metrics <id|$> ...`).  In a batch each answers a
// clean `err @<n>` naming it as not batchable — a multi-line `metrics` or
// `trace dump` block could not be split back out of a batch response.
TEST(NetServer, TransportVerbsTolerateWhitespaceAndRefuseBatching) {
  NetServer srv;
  Client client(srv.port());

  const auto metrics = parse_metrics_response(client.request("metrics"));
  const auto padded_metrics =
      parse_metrics_response(client.request("metrics\n"));
  ASSERT_FALSE(metrics.empty());
  EXPECT_EQ(keys_of(padded_metrics), keys_of(metrics));
  EXPECT_EQ(padded_metrics.at("net.frames_in"),
            metrics.at("net.frames_in") + 1);

  const std::string netstats = client.request("netstats");
  const std::string padded_netstats = client.request("netstats ");
  EXPECT_EQ(netstats.rfind("net accepted=1 ", 0), 0u) << netstats;
  EXPECT_EQ(keys_of(parse_netstats_response(padded_netstats)),
            keys_of(parse_netstats_response(netstats)));
  EXPECT_TRUE(padded_netstats.ends_with(" connections=1"))
      << padded_netstats;

  EXPECT_EQ(client.request(" trace start"), client.request("trace start"));
  EXPECT_EQ(client.request("trace stop\n"), "ok trace off");
  EXPECT_EQ(client.request("\ttrace  bogus "),
            "err usage: trace start|stop|dump");

  const auto blocks = Client::split_response(client.batch({"ping", "metrics"}));
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], "ok");
  EXPECT_EQ(blocks[1], "err @2 'metrics' is not batchable");
  EXPECT_EQ(client.batch({"netstats", "trace dump", "ping"}),
            "err @1 'netstats' is not batchable\n"
            "err @2 'trace' is not batchable\nok");
}

// A client that pipelines its whole workload and then half-closes
// (shutdown(SHUT_WR)) has declared end-of-input, not abandonment: every
// queued request still executes — including one that parks on a wait —
// and every response still arrives, before the server closes its side.
// (The old reactor treated EOF as a shed and dropped both.)
TEST(NetServer, HalfCloseDrainsPipelinedRepliesBeforeClosing) {
  NetServer srv;
  Client client(srv.port());

  const server::SessionSpec spec =
      spec_with("chain", 7, sim::EngineKind::Serial);
  ASSERT_TRUE(client.send(open_line(spec) +
                          "\nrun $ 20\nwait $\ndrain $\nclose $"));
  ASSERT_TRUE(client.send("ping"));
  ASSERT_TRUE(client.shutdown_write());

  const auto blocks = Client::split_response(client.receive());
  ASSERT_EQ(blocks.size(), 5u);
  server::SessionId id = server::kInvalidSession;
  EXPECT_TRUE(parse_open_id(blocks[0], &id));
  EXPECT_EQ(blocks[1], "ok");
  EXPECT_EQ(blocks[2], "ok t=" + std::to_string(20 * kMillisecond));
  Events events;
  ASSERT_TRUE(parse_spikes(blocks[3], &events));
  EXPECT_EQ(blocks[4], "ok");
  const Events reference = server::run_standalone(spec, 20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(events, reference));

  EXPECT_EQ(client.receive(), "ok");  // the trailing ping, answered post-EOF
  EXPECT_EQ(client.receive(), "");    // then the server's orderly close
  EXPECT_FALSE(client.connected());

  // An orderly drain is not an error: no shed counter moved, and the
  // server's side of the connection is gone by the time the client sees
  // EOF (the gauge drops before the socket closes).
  const NetStats st = srv.stats();
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(st.shed_slow, 0u);
  EXPECT_EQ(st.shed_flood, 0u);
  EXPECT_EQ(st.connections, 0u);
}

// A server that cannot create a reactor's wakeup pipe must refuse to
// construct, loudly — a silently fd-less pipe would degrade every
// cross-thread resume to the epoll timeout (the bug: Wakeup() ignored
// pipe() failure and left both fds at -1).  Exhaust the fd table, free
// exactly enough slots for the listener and the epoll set but not the
// pipe, and demand the diagnostic.
TEST(NetServer, WakeupConstructionFailureIsLoudNotSilent) {
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &tight), 0);

  // Fill every free slot below the limit (fd allocation is lowest-free,
  // so holes anywhere in the table would hand the server extra budget).
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::open("/dev/null", O_RDONLY);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  ASSERT_GE(hogs.size(), 3u);
  // Three slots: listener socket + epoll set succeed, pipe(2) cannot.
  for (int i = 0; i < 3; ++i) {
    ::close(hogs.back());
    hogs.pop_back();
  }

  NetConfig cfg;
  try {
    NetServer srv(cfg);
    FAIL() << "NetServer constructed with no free fd for the wakeup pipe";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wakeup pipe"), std::string::npos)
        << e.what();
  }

  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &saved), 0);

  // With fds available again the same config constructs and serves.
  NetServer srv(cfg);
  Client client(srv.port());
  EXPECT_EQ(client.request("ping"), "ok");
}

// A parked wait on one connection must not stall another connection's
// lifecycle (the test hangs, and the ctest hard timeout fails it, if the
// reactor blocks).
TEST(NetServer, ParkedWaitDoesNotBlockOtherConnections) {
  NetServer srv;

  Client slow(srv.port());
  server::SessionId slow_id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(
      slow.request("open app=noise seed=5"), &slow_id));
  ASSERT_EQ(slow.request("run " + std::to_string(slow_id) + " 150"), "ok");
  ASSERT_TRUE(slow.send("wait " + std::to_string(slow_id)));
  ASSERT_TRUE(slow.flush());  // on the server now: parks the connection

  // A full lifecycle on a second connection completes while the first
  // connection's wait is parked.
  Client quick(srv.port());
  const auto blocks = Client::split_response(quick.batch(
      {"open app=chain seed=3", "run $ 5", "wait $", "drain $", "close $"}));
  ASSERT_EQ(blocks.size(), 5u);
  EXPECT_EQ(blocks[4], "ok");

  // The parked wait resolves once the long session finishes.
  EXPECT_EQ(slow.receive(), "ok t=" + std::to_string(150 * kMillisecond));
  EXPECT_EQ(slow.request("close " + std::to_string(slow_id)), "ok");
}

// ---- backpressure ----------------------------------------------------------

TEST(NetServer, SlowReaderIsShedNotBuffered) {
  NetConfig cfg;
  cfg.max_write_buffer = 512;  // a full drained stream cannot fit
  NetServer srv(cfg);

  Client client(srv.port());
  const auto blocks = Client::split_response(client.batch(
      {"open app=noise seed=11", "run $ 30", "wait $", "drain $"}));
  // The drain response overflows the write budget: the connection is shed
  // (receive fails) instead of the server buffering without bound.
  EXPECT_TRUE(blocks.empty());
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(srv.stats().shed_slow, 1u);

  // The server survives and keeps serving new connections.
  Client next(srv.port());
  EXPECT_EQ(next.request("ping"), "ok");
  // The shed client's session is still resident server-side; the embedded
  // API can still reach it (transport loss != session loss).
  EXPECT_EQ(srv.sessions().stats().opened, 1u);
}

TEST(NetServer, PipelineFloodIsShed) {
  NetConfig cfg;
  cfg.max_pipeline = 8;
  NetServer srv(cfg);
  // Blast 64 frames in a single write: they arrive as one readable burst,
  // the reactor decodes past the pipeline cap and sheds the connection
  // rather than buffering the flood.
  std::string error;
  Fd raw = connect_loopback(srv.port(), &error);
  ASSERT_TRUE(raw) << error;
  std::string wire;
  for (int i = 0; i < 64; ++i) append_frame(wire, "ping");
  ASSERT_TRUE(send_all(raw.get(), wire.data(), wire.size()));
  // The server closes on us: the read drains any early responses, then EOF.
  char buf[4096];
  while (recv_exact(raw.get(), buf, 1)) {
  }
  EXPECT_EQ(srv.stats().shed_flood, 1u);
  Client next(srv.port());
  EXPECT_EQ(next.request("ping"), "ok");
}

// ---- cost-aware admission over the wire ------------------------------------

TEST(NetServer, CostBudgetIsEnforcedFromTheSocket) {
  NetConfig cfg;
  // Budget fits exactly one default-spec session declaring 10 ms.
  cfg.session.cost_budget = server::admission_cost(
      [] {
        server::SessionSpec s;
        s.bio_hint = 10 * kMillisecond;
        return s;
      }());
  NetServer srv(cfg);
  Client client(srv.port());

  // Cost exactly at budget: admitted.
  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(
      client.request("open app=noise seed=1 bio_hint_ms=10"), &id));
  // Over budget while the first session is busy: an outstanding long run
  // keeps it from idling, so the over-budget open can never free the
  // budget by evicting — deterministic rejection.
  ASSERT_EQ(client.request("run " + std::to_string(id) + " 1000000"), "ok");
  const std::string rejected =
      client.request("open app=noise seed=2 bio_hint_ms=10");
  EXPECT_EQ(rejected.rfind("err ", 0), 0u) << rejected;
  // Zero-cost opens still pass (count cap permitting).
  server::SessionId free_id = server::kInvalidSession;
  EXPECT_TRUE(
      parse_open_id(client.request("open app=chain seed=3"), &free_id));

  const std::string stats = client.request("stats");
  EXPECT_NE(stats.find("rejected_cost=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("cost=" + std::to_string(cfg.session.cost_budget) +
                       "/" + std::to_string(cfg.session.cost_budget)),
            std::string::npos)
      << stats;
}

// The reactor runs the scheduler, and so does an embedding thread in
// wait() — the determinism contract must hold whichever thread services
// each slice.  The embedded open/run/wait runs while the two wire
// connections are served, so two threads drive slices at once.
TEST(NetServer, ReactorDrivenServingIsBitIdentical) {
  NetServer srv;

  // Pipelined batches from two connections, mixed engines.
  const std::vector<WireSession> sessions = {
      {spec_with("noise", 31, sim::EngineKind::Serial), 20 * kMillisecond},
      {spec_with("chain", 32, sim::EngineKind::Sharded, 2, 2),
       20 * kMillisecond},
  };
  std::vector<Events> streams(sessions.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    clients.emplace_back([&, i] {
      streams[i] = drive_over_socket(srv.port(), sessions[i], 4);
    });
  }

  // The embedded API on a reactor-driven server works too, concurrently:
  // the work signal wakes the reactor for sessions submitted off-wire,
  // and wait() drives on this thread.
  {
    server::SessionSpec spec = spec_with("stdp", 33, sim::EngineKind::Serial);
    std::string error;
    const server::SessionId id = srv.sessions().open(spec, &error);
    ASSERT_NE(id, server::kInvalidSession) << error;
    ASSERT_TRUE(srv.sessions().run(id, 10 * kMillisecond));
    ASSERT_TRUE(srv.sessions().wait(id));
    const Events via_api = srv.sessions().drain(id);
    const Events reference =
        server::run_standalone(spec, 10 * kMillisecond);
    EXPECT_TRUE(same_events(via_api, reference));
    EXPECT_TRUE(srv.sessions().close(id));
  }

  for (auto& t : clients) t.join();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    SCOPED_TRACE("connection " + std::to_string(i));
    const Events reference =
        server::run_standalone(sessions[i].spec, sessions[i].run);
    ASSERT_FALSE(reference.empty());
    EXPECT_TRUE(same_events(streams[i], reference));
  }
}

// A session submitted through the embedded API, by a thread that never
// calls wait() or poll(), is driven by the reactor alone: the submission
// fires the work signal, which is the reactor's wakeup, and no slice ever
// runs on the test thread.  busy() only reads; it drives nothing.
TEST(NetServer, EmbeddedSubmissionIsDrivenByTheReactor) {
  NetServer srv;
  const server::SessionSpec spec =
      spec_with("noise", 34, sim::EngineKind::Serial);
  std::string error;
  const server::SessionId id = srv.sessions().open(spec, &error);
  ASSERT_NE(id, server::kInvalidSession) << error;
  ASSERT_TRUE(srv.sessions().run(id, 20 * kMillisecond));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (srv.sessions().busy(id)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "the reactor never drove the embedded submission";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Events via_api = srv.sessions().drain(id);
  const Events reference = server::run_standalone(spec, 20 * kMillisecond);
  ASSERT_FALSE(reference.empty());
  EXPECT_TRUE(same_events(via_api, reference));
  EXPECT_TRUE(srv.sessions().close(id));
}

// The transport and the embedded API are the same server: a session opened
// over the wire is visible (and bit-identical) through SessionServer.
TEST(NetServer, WireAndEmbeddedApiShareTheServer) {
  NetServer srv;
  Client client(srv.port());
  server::SessionId id = server::kInvalidSession;
  ASSERT_TRUE(parse_open_id(client.request("open app=chain seed=9"), &id));
  ASSERT_EQ(client.request("run " + std::to_string(id) + " 10"), "ok");
  ASSERT_TRUE(srv.sessions().wait(id));  // embedded wait on a wire session
  const Events via_api = srv.sessions().drain(id);
  const Events reference = server::run_standalone(
      spec_with("chain", 9, sim::EngineKind::Serial), 10 * kMillisecond);
  EXPECT_TRUE(same_events(via_api, reference));
  EXPECT_EQ(client.request("close " + std::to_string(id)), "ok");
}

}  // namespace
}  // namespace spinn::net
