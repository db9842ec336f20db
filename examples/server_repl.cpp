// server_repl: a stdin front end to the session server's wire protocol.
//
// Starts an in-process NetServer and sends each input line — from stdin,
// or from a script file given as argv[1], echoing each line — as one
// request frame through net::Client, printing the response verbatim.  The
// verbs and response shapes are the wire's (docs/SERVER.md § "Verbs and
// response shapes"); only `#` comments, blank lines, `help` and `quit` are
// handled here.
//
//   $ ./server_repl                 # interactive
//   $ ./server_repl script.txt      # scripted transcript
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "net/client.hpp"
#include "net/server.hpp"

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

  spinn::net::NetServer srv;
  spinn::net::Client client(srv.port());
  std::printf("spinnaker session server — %zu session slots (type 'help')\n",
              srv.config().session.max_sessions);

  for (std::string line; std::getline(in, line);) {
    if (scripted) std::printf("> %s\n", line.c_str());
    const std::size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    const std::size_t last = line.find_last_not_of(" \t\r");
    const std::string word = line.substr(first, last + 1 - first);
    if (word == "quit") break;
    if (word == "help") {
      std::printf("each line is sent as one request frame; verbs and "
                  "responses: docs/SERVER.md\n"
                  "local: help | quit | # comment\n");
      continue;
    }
    const std::string response = client.request(line);
    if (response.empty()) {
      std::fprintf(stderr, "connection to the server lost\n");
      return 1;
    }
    std::printf("%s\n", response.c_str());
  }
  return 0;
}
