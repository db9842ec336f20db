// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload sim_e12|serve_chain|serve_wirenet --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
//
// Prints one JSON object on stdout: correct, attempted, failed, metrics
// (name -> value, unit, sample count, within-run spread) and notes.
// perfbench/run.py builds this program, adds provenance and prints the
// benchmark's result line.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {
int selftest();
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.threads = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::selftest();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  if (opt.seconds <= 0.0) return usage();

  perfbench::Result result;
  if (opt.workload == "sim_e12") {
    result = perfbench::run_sim_e12(opt);
  } else if (opt.workload == "serve_chain") {
    result = perfbench::run_serve_chain(opt);
  } else if (opt.workload == "serve_wirenet") {
    result = perfbench::run_serve_wirenet(opt);
  } else {
    return usage();
  }
  result.notes["workload"] = opt.workload;
  result.notes["seed"] = std::to_string(opt.seed);
  result.notes["hw_threads"] = std::to_string(opt.threads);
  result.notes["compiler"] = PERFBENCH_COMPILER;
  result.notes["build_type"] = PERFBENCH_BUILD_TYPE;
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
