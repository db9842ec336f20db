#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

    python3 perfbench/run.py --workload sim_e12 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the first run
compiles the simulator library, later runs only check it is up to date.

Standard output ends with two lines: a `perfbench {...}` line carrying the
provenance (host shape, compiler, build type, commit, seed, run count) and
every metric's sample count and within-run spread, then the result line
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list;
a traced run also writes a Chrome trace next to the build.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_e12", "serve_chain", "serve_wirenet")
RUN_TIMEOUT_S = 170
PROCESSES = 3


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configures once, then builds; the compiler's output goes to stderr."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    done = subprocess.run(["cmake", "--build", bdir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def source_digest():
    """Digest of the simulator and benchmark sources: names the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    # The ceiling keeps git from answering for a repository around ROOT.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    names = declared_metrics(args.trace)
    bdir = build_dir()
    if not build(bdir):
        log("perfbench: build failed")
        return 1
    # An untraced run is PROCESSES fresh processes, each measuring a third
    # of the time from its own set-up: process-level state (allocator,
    # thread placement) then varies inside a run, and the medians absorb it.
    processes = 1 if args.trace else PROCESSES
    deadline = time.monotonic() + RUN_TIMEOUT_S
    trace_path = None
    raws = []
    for i in range(processes):
        cmd = [os.path.join(bdir, "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed * PROCESSES + i),
               "--seconds", str(args.seconds / processes),
               "--trace", str(args.trace)]
        if args.trace:
            os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
            trace_path = os.path.join(
                bdir, "traces", f"{args.workload}-seed{args.seed}.json")
            cmd += ["--trace-out", trace_path]
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=sys.stderr, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log(f"perfbench: the measurement exceeded {RUN_TIMEOUT_S} s")
            return 1
        if done.returncode != 0:
            log(f"perfbench: program exited with {done.returncode}")
            return 1
        raw = json.loads(done.stdout.strip().splitlines()[-1])
        missing = [n for n in names if n not in raw["metrics"]]
        if missing:
            log("perfbench: program did not report " + ", ".join(missing))
            return 1
        raws.append(raw)

    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    metrics = {}
    detail = {}
    for n in raws[0]["metrics"]:
        values = [r["metrics"][n]["value"] for r in raws]
        if n == "ok_frac":
            value = 1.0 - failed / attempted if attempted else 0.0
        elif n == "peak_rss_mb":
            value = max(values)
        else:
            value = statistics.median(values)
        if n in names:
            metrics[n] = {"value": value,
                          "unit": raws[0]["metrics"][n]["unit"]}
        detail[n] = {"value": value, "per_process": values,
                     "samples": [r["metrics"][n]["samples"] for r in raws],
                     "within_process_spread":
                         [r["metrics"][n]["spread"] for r in raws]}
    notes = raws[0]["notes"]
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": 1,
        "processes": processes,
        "nproc": len(os.sched_getaffinity(0)),
        "hw_threads": int(notes["hw_threads"]),
        "compiler": notes["compiler"],
        "build_type": notes["build_type"],
        "commit": commit(),
        "source_digest": source_digest(),
        "trace_file": trace_path,
    }
    print("perfbench " + json.dumps({
        "provenance": provenance, "spread": detail,
        "notes": [r["notes"] for r in raws]}))
    result = {
        # Every check passed and no operation failed.
        "correct": all(r["correct"] for r in raws) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
