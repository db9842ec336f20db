#!/usr/bin/env python3
"""Compare two sets of perfbench runs, one row per workload x metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the standard output of perfbench/run.py
runs, appended one after another (each run ends with its `perfbench {...}`
line and its result line).  Pair the runs: run the two sides alternately,
the same seeds in the same order, at least ten of each.

For every workload and end-to-end metric the table gives each side's
median and quartiles, the share of pairs the new side won (ties count for
neither) and a verdict:

  improved    the new side won at least 9/10 of the pairs and its median
              is better by more than the base runs' own quartile spread;
  worse       the median is worse than the base by more than the metric's
              bound, and the spread is within the bound or the new side
              lost at least 9/10 of the pairs;
  unresolved  either side's spread (quartile distance over median) is
              wider than the bound, so "unchanged" cannot be claimed;
  unchanged   none of the above.

The bounds and directions come from BENCHMARK.json.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_runs(path):
    """Returns [(provenance, result)] in file order."""
    runs = []
    provenance = None
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("perfbench {"):
                provenance = json.loads(line[len("perfbench "):])["provenance"]
            elif line.startswith("{") and provenance is not None:
                runs.append((provenance, json.loads(line)))
                provenance = None
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """Verdict and share of pairs won for two lists of one metric's values,
    paired by position."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, new))
    won = sum(1 for b, n in pairs if sign * (n - b) > 0) / len(pairs)
    lost = sum(1 for b, n in pairs if sign * (n - b) < 0) / len(pairs)
    b1, b_med, b3 = quartiles(base)
    n_med = statistics.median(new)
    gain = sign * (n_med - b_med)
    wide = max(spread(base), spread(new)) > bound
    if won >= 0.9 and gain > b3 - b1:
        return "improved", won
    if -gain > bound * abs(b_med) and (not wide or lost >= 0.9):
        return "worse", won
    if wide:
        return "unresolved", won
    return "unchanged", won


def by_workload(runs):
    out = {}
    for provenance, result in runs:
        out.setdefault(provenance["workload"], []).append((provenance, result))
    return out


def compare(base_runs, new_runs, spec):
    """Rows of (workload, metric, unit, base stats, new stats, won, verdict)."""
    rows = []
    base = by_workload(base_runs)
    new = by_workload(new_runs)
    for workload in sorted(set(base) & set(new)):
        for m in spec["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name]["value"] for _, r in base[workload]
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for _, r in new[workload]
                 if name in r["metrics"]]
            if not b or not n:
                continue
            v, won = verdict(b, n, m["better"], m["bound"])
            rows.append((workload, name, m["unit"], quartiles(b), len(b),
                         quartiles(n), len(n), won, v))
    return rows


def describe(runs):
    shapes = sorted({(p.get("nproc"), p.get("hw_threads"), p.get("compiler"),
                      p.get("build_type"), p.get("commit") or p.get("source_digest"))
                     for p, _ in runs}, key=str)
    return "; ".join(f"nproc={a} hw_threads={b} {c} {d} code={e}"
                     for a, b, c, d, e in shapes)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base_runs = load_runs(argv[1])
    new_runs = load_runs(argv[2])
    print(f"base: {len(base_runs)} runs ({describe(base_runs)})")
    print(f"new:  {len(new_runs)} runs ({describe(new_runs)})")
    head = (f"{'workload':14} {'metric':20} {'unit':9} "
            f"{'base median [q1, q3]':>32} {'new median [q1, q3]':>32} "
            f"{'delta':>8} {'won':>5}  verdict")
    print(head)
    for (workload, name, unit, b, nb, n, nn, won, v) in compare(
            base_runs, new_runs, spec):
        delta = (n[1] - b[1]) / abs(b[1]) if b[1] else 0.0
        print(f"{workload:14} {name:20} {unit:9} "
              f"{_stat(b, nb):>32} {_stat(n, nn):>32} "
              f"{delta:+8.1%} {won:5.0%}  {v}")
    return 0


def _stat(q, count):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] n={count}"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
