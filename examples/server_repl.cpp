// server_repl: a line-protocol transport for the session server.
//
// Reads one command per line from stdin (or from a script file given as
// argv[1], echoing each command) and prints one response block per command.
// This is deliberately the thinnest possible transport — the session
// subsystem (src/server/) is the point; swapping stdio for a socket is a
// framing exercise.  Protocol reference: docs/SERVER.md.
//
//   $ ./server_repl                 # interactive
//   $ ./server_repl script.txt      # scripted transcript
//
// Commands:
//   open [key=value ...]   create a session (width, height, cores, app,
//                          seed, engine, shards, threads, neurons_per_core,
//                          scatter, boot, link_flight_ns)
//   run <id> <bio ms>      queue biological time (asynchronous)
//   wait <id>              block until the session is idle
//   drain <id>             fetch spikes recorded since the last drain
//   status <id>            lifecycle state, bio time, spike counters
//   close <id>             tear the session down
//   stats                  server + engine-pool counters
//   apps                   list registered applications
//   help                   this summary
//   quit                   exit
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/spinnaker.hpp"

namespace {

using namespace spinn;

void print_help() {
  std::printf(
      "commands: open [key=value ...] | run <id> <ms> | wait <id> | "
      "drain <id> |\n          status <id> | close <id> | stats | apps | "
      "help | quit\n");
}

void cmd_open(server::SessionServer& srv,
              const std::vector<std::string>& args) {
  server::SessionSpec spec;
  std::string error;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const auto eq = args[i].find('=');
    if (eq == std::string::npos) {
      std::printf("err expected key=value, got '%s'\n", args[i].c_str());
      return;
    }
    if (!server::apply_kv(spec, args[i].substr(0, eq), args[i].substr(eq + 1),
                          &error)) {
      std::printf("err %s\n", error.c_str());
      return;
    }
  }
  const auto id = srv.open(spec, &error);
  if (id == server::kInvalidSession) {
    std::printf("err %s\n", error.c_str());
    return;
  }
  std::printf("ok id=%llu\n", static_cast<unsigned long long>(id));
}

void cmd_status(server::SessionServer& srv, server::SessionId id) {
  const auto st = srv.status(id);
  if (st.id == server::kInvalidSession) {
    std::printf("err unknown session\n");
    return;
  }
  std::printf("id=%llu state=%s%s t=%.1fms target=%.1fms spikes=%zu "
              "drained=%zu%s%s\n",
              static_cast<unsigned long long>(st.id), to_string(st.state),
              st.evicted ? " (evicted)" : "",
              static_cast<double>(st.bio_now) / kMillisecond,
              static_cast<double>(st.bio_target) / kMillisecond,
              st.spikes_recorded, st.spikes_drained,
              st.error.empty() ? "" : " error=", st.error.c_str());
}

void cmd_drain(server::SessionServer& srv, server::SessionId id) {
  const auto events = srv.drain(id);
  std::printf("spikes %zu\n", events.size());
  if (!events.empty()) {
    const auto& first = events.front();
    const auto& last = events.back();
    std::printf("  first t=%.3fms key=0x%x\n",
                static_cast<double>(first.time) / kMillisecond, first.key);
    std::printf("  last  t=%.3fms key=0x%x\n",
                static_cast<double>(last.time) / kMillisecond, last.key);
  }
}

void cmd_stats(server::SessionServer& srv) {
  const auto st = srv.stats();
  std::printf("sessions opened=%llu closed=%llu evicted=%llu rejected=%llu "
              "resident=%zu\n",
              static_cast<unsigned long long>(st.opened),
              static_cast<unsigned long long>(st.closed),
              static_cast<unsigned long long>(st.evicted),
              static_cast<unsigned long long>(st.rejected), st.resident);
  std::printf("engines created=%llu reused=%llu idle=%zu\n",
              static_cast<unsigned long long>(st.engines.created),
              static_cast<unsigned long long>(st.engines.reused),
              st.engines.idle);
}

bool handle(server::SessionServer& srv, const std::string& line) {
  std::istringstream ss(line);
  std::vector<std::string> args;
  for (std::string tok; ss >> tok;) args.push_back(tok);
  if (args.empty()) return true;
  const std::string& cmd = args[0];
  if (cmd == "quit" || cmd == "exit") return false;
  if (cmd == "help") {
    print_help();
    return true;
  }
  if (cmd == "apps") {
    for (const auto& name : server::app_names()) {
      std::printf("%s ", name.c_str());
    }
    std::printf("\n");
    return true;
  }
  if (cmd == "stats") {
    cmd_stats(srv);
    return true;
  }
  if (cmd == "open") {
    cmd_open(srv, args);
    return true;
  }
  // Everything below addresses a session: <cmd> <id> [...].
  // Strict parse: "12abc" and "-1" are usage errors, not ids 12 and 2^64-1.
  server::SessionId id = server::kInvalidSession;
  if (args.size() < 2 ||
      !server::parse_u64_strict(
          args[1], std::numeric_limits<server::SessionId>::max(), &id)) {
    std::printf("err usage: %s <id> ...\n", cmd.c_str());
    return true;
  }
  if (cmd == "run") {
    TimeNs duration = 0;
    if (args.size() < 3 || !server::parse_run_ms(args[2], &duration)) {
      std::printf("err usage: run <id> <bio ms in (0, 1e9]>\n");
      return true;
    }
    std::printf(srv.run(id, duration) ? "ok\n"
                                      : "err unknown or closed session\n");
  } else if (cmd == "wait") {
    if (!srv.wait(id)) {
      std::printf("err unknown session\n");
      return true;
    }
    std::printf("ok t=%.1fms\n",
                static_cast<double>(srv.status(id).bio_now) / kMillisecond);
  } else if (cmd == "drain") {
    cmd_drain(srv, id);
  } else if (cmd == "status") {
    cmd_status(srv, id);
  } else if (cmd == "close") {
    std::printf(srv.close(id) ? "ok\n" : "err unknown or already closed\n");
  } else {
    std::printf("err unknown command '%s' (try 'help')\n", cmd.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::ifstream script;
  const bool scripted = argc > 1;
  if (scripted) {
    script.open(argv[1]);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", argv[1]);
      return 1;
    }
  }
  std::istream& in = scripted ? static_cast<std::istream&>(script) : std::cin;

  server::ServerConfig cfg;
  cfg.workers = 2;
  server::SessionServer srv(cfg);
  std::printf("spinnaker session server — %u workers, %zu session slots "
              "(type 'help')\n",
              cfg.workers, cfg.max_sessions);

  for (std::string line; std::getline(in, line);) {
    if (scripted) std::printf("> %s\n", line.c_str());
    if (!line.empty() && line[0] == '#') continue;
    if (!handle(srv, line)) break;
  }
  return 0;
}
