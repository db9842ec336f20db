// net_demo: the socket transport end-to-end.
//
// Starts a NetServer on an ephemeral loopback port and walks the client
// idioms against it — synchronous request/response, an explicit batch
// frame (one round-trip for a whole session lifecycle, `$` binding the
// freshly-opened id), pipelined frames with several sessions in flight,
// and a client-described network (the `net ... end` block + `open app=@`:
// an arbitrary PyNN-style net submitted over the wire instead of naming a
// built-in app) — then drives 8 concurrent connections and verifies every
// spike stream delivered over the wire is bit-identical to the same spec
// run standalone.  The printed output is pinned as a golden test: spike
// counts and times are properties of the specs, not of scheduling, port
// choice or connection interleaving.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/spinnaker.hpp"

namespace {

using namespace spinn;
using Events = std::vector<neural::SpikeRecorder::Event>;

bool same_events(const Events& a, const Events& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].key != b[i].key) return false;
  }
  return true;
}

void print_stream(const char* label, const Events& events) {
  std::printf("%s: %zu spikes", label, events.size());
  if (!events.empty()) {
    std::printf(" (first t=%.3fms key=0x%x, last t=%.3fms key=0x%x)",
                static_cast<double>(events.front().time) / kMillisecond,
                events.front().key,
                static_cast<double>(events.back().time) / kMillisecond,
                events.back().key);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  net::NetConfig cfg;
  cfg.session.max_sessions = 16;
  net::NetServer srv(cfg);
  std::printf("net_demo: session server on a loopback socket — "
              "%zu session slots\n\n", cfg.session.max_sessions);

  // --- 1. synchronous request/response -------------------------------------
  std::printf("[1] sync requests, one command per round-trip\n");
  net::Client sync_client(srv.port());
  std::printf("ping -> %s\n", sync_client.request("ping").c_str());
  std::printf("apps -> %s\n", sync_client.request("apps").c_str());
  server::SessionId id = server::kInvalidSession;
  net::parse_open_id(sync_client.request("open app=chain seed=7"), &id);
  sync_client.request("run " + std::to_string(id) + " 20");
  sync_client.request("wait " + std::to_string(id));
  Events chain_stream;
  net::parse_spikes(sync_client.request("drain " + std::to_string(id)),
                    &chain_stream);
  print_stream("chain seed=7, 20 ms", chain_stream);
  sync_client.request("close " + std::to_string(id));

  // --- 2. one batch frame = one whole lifecycle ----------------------------
  std::printf("\n[2] batch frame: open; run; wait; drain; close in one "
              "round-trip ($ = the opened id)\n");
  const auto blocks = net::Client::split_response(sync_client.batch(
      {"open app=noise engine=sharded shards=4 threads=2 seed=42",
       "run $ 15", "wait $", "drain $", "close $"}));
  std::printf("batch of 5 commands -> %zu response blocks\n", blocks.size());
  Events noise_stream;
  if (blocks.size() == 5) net::parse_spikes(blocks[3], &noise_stream);
  print_stream("noise seed=42 sharded, 15 ms", noise_stream);

  // --- 3. pipelining: several sessions in flight on one connection ---------
  std::printf("\n[3] pipelined batches: 4 sessions in flight on one "
              "connection\n");
  net::Client pipeline_client(srv.port());
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    pipeline_client.send("open app=noise seed=" + std::to_string(seed) +
                         "\nrun $ 10\nwait $\ndrain $\nclose $");
  }
  for (std::uint64_t seed = 100; seed < 104; ++seed) {
    const auto b = net::Client::split_response(pipeline_client.receive());
    Events stream;
    if (b.size() == 5) net::parse_spikes(b[3], &stream);
    std::printf("  seed=%llu: %zu spikes\n",
                static_cast<unsigned long long>(seed), stream.size());
  }

  // --- 4. concurrent connections, the determinism contract -----------------
  std::printf("\n[4] 8 concurrent connections, mixed engines, verified "
              "against standalone runs\n");
  struct Job {
    server::SessionSpec spec;
    Events stream;
  };
  std::vector<Job> jobs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Job job;
    job.spec.app = i % 2 == 0 ? "noise" : "chain";
    job.spec.seed = 7000 + i;
    if (i % 4 == 2) {
      job.spec.engine = sim::EngineKind::Sharded;
      job.spec.shards = 2;
      job.spec.threads = 2;
    }
    jobs.push_back(std::move(job));
  }
  std::vector<std::thread> workers;
  workers.reserve(jobs.size());
  for (auto& job : jobs) {
    workers.emplace_back([&srv, &job] {
      std::string open = "open app=" + job.spec.app +
                         " seed=" + std::to_string(job.spec.seed);
      if (job.spec.engine == sim::EngineKind::Sharded) {
        open += " engine=sharded shards=2 threads=2";
      }
      net::Client c(srv.port());
      const auto b = net::Client::split_response(
          c.batch({open, "run $ 12", "wait $", "drain $", "close $"}));
      if (b.size() == 5) net::parse_spikes(b[3], &job.stream);
    });
  }
  for (auto& t : workers) t.join();
  int identical = 0;
  for (const auto& job : jobs) {
    if (same_events(job.stream,
                    server::run_standalone(job.spec, 12 * kMillisecond))) {
      ++identical;
    }
  }
  std::printf("%d/%zu socket streams bit-identical to standalone\n",
              identical, jobs.size());

  // --- 5. a client-described net: the wire-format front door ---------------
  std::printf("\n[5] client-described net: net ... end + open app=@ in one "
              "batch\n");
  net::NetBuilder builder;
  builder.spike_source("stim", {{1, 6}, {3}});
  builder.poisson("bg", 24, 30.0);
  builder.lif("cells", 40).v_thresh = -54.0;
  builder.project("stim", "cells", neural::Connector::all_to_all(),
                  neural::ValueDist::fixed(15.0),
                  neural::ValueDist::fixed(1.0));
  builder.project("bg", "cells", neural::Connector::fixed_probability(0.25),
                  neural::ValueDist::uniform(2.0, 6.0),
                  neural::ValueDist::fixed(1.0));
  builder.project("cells", "cells",
                  neural::Connector::fixed_probability(0.08),
                  neural::ValueDist::fixed(1.5),
                  neural::ValueDist::fixed(2.0), /*inhibitory=*/true);
  std::vector<std::string> net_lines = builder.lines();
  net_lines.push_back("open app=@ seed=77");
  net_lines.push_back("run $ 15");
  net_lines.push_back("wait $");
  net_lines.push_back("drain $");
  net_lines.push_back("close $");
  const auto net_blocks =
      net::Client::split_response(sync_client.batch(net_lines));
  Events custom_stream;
  if (net_blocks.size() == 6) {
    std::printf("net block -> %s\n", net_blocks[0].c_str());
    net::parse_spikes(net_blocks[4], &custom_stream);
  }
  print_stream("custom net seed=77, 15 ms", custom_stream);
  server::SessionSpec custom_spec;
  custom_spec.seed = 77;
  custom_spec.net = std::make_shared<const neural::NetworkDescription>(
      builder.description());
  const bool custom_identical = same_events(
      custom_stream, server::run_standalone(custom_spec, 15 * kMillisecond));
  std::printf("wire stream vs embedded build of the same description: %s\n",
              custom_identical ? "bit-identical" : "MISMATCH");

  // --- 6. the books --------------------------------------------------------
  const auto net_stats = srv.stats();
  const auto sess = srv.sessions().stats();
  std::printf("\nnet: accepted=%llu shed_slow=%llu shed_flood=%llu "
              "batches=%llu\n",
              static_cast<unsigned long long>(net_stats.accepted),
              static_cast<unsigned long long>(net_stats.shed_slow),
              static_cast<unsigned long long>(net_stats.shed_flood),
              static_cast<unsigned long long>(net_stats.batches));
  std::printf("sessions: opened=%llu closed=%llu evicted=%llu "
              "rejected=%llu resident=%zu\n",
              static_cast<unsigned long long>(sess.opened),
              static_cast<unsigned long long>(sess.closed),
              static_cast<unsigned long long>(sess.evicted),
              static_cast<unsigned long long>(sess.rejected), sess.resident);
  return identical == static_cast<int>(jobs.size()) && custom_identical
             ? 0
             : 1;
}
