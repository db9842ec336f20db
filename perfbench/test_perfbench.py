#!/usr/bin/env python3
"""Tests of the benchmark's own logic.

    python3 perfbench/test_perfbench.py

The compare verdicts are checked on synthetic runs here.  The C++ side
(spike-hash stability, failures counted as SLO misses, open-loop latency
from the scheduled send time, reply checking) runs as `perfbench
--selftest`, built the way run.py builds it.
"""
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402


class VerdictTest(unittest.TestCase):
    def test_nine_of_ten_wins_beyond_the_spread_is_improved(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [110, 111, 109, 112, 110, 108, 111, 99, 110, 111]  # pair 8 lost
        v, won = compare.verdict(base, new, "higher", 0.15)
        self.assertEqual(won, 0.9)
        self.assertEqual(v, "improved")

    def test_eight_of_ten_wins_is_not_improved(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [110, 111, 109, 112, 110, 108, 90, 99, 110, 111]
        v, won = compare.verdict(base, new, "higher", 0.15)
        self.assertEqual(won, 0.8)
        self.assertEqual(v, "unchanged")

    def test_a_tie_is_unchanged(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.1, 10.0, 9.9, 10.2]
        v, won = compare.verdict(base, list(base), "lower", 0.1)
        self.assertEqual(won, 0.0)
        self.assertEqual(v, "unchanged")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        base = [10, 20, 5, 15, 30, 8, 12, 25, 6, 18]
        new = [12, 9, 22, 14, 28, 7, 16, 11, 24, 5]
        v, _ = compare.verdict(base, new, "lower", 0.25)
        self.assertEqual(v, "unresolved")

    def test_a_worse_median_beyond_the_bound_is_worse(self):
        base = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        new = [v * 0.8 for v in base]
        v, won = compare.verdict(base, new, "higher", 0.15)
        self.assertEqual(won, 0.0)
        self.assertEqual(v, "worse")

    def test_lower_is_better_wins_on_smaller_values(self):
        base = [5.0] * 10
        new = [4.0] * 10
        v, won = compare.verdict(base, new, "lower", 0.2)
        self.assertEqual((v, won), ("improved", 1.0))

    def test_runs_are_read_from_run_output(self):
        path = os.path.join(run.build_dir(), "compare_test_runs.txt")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for seed, value in ((1, 10.0), (2, 11.0)):
                f.write("compiler chatter\n")
                f.write('perfbench {"provenance": {"workload": "serve_chain", '
                        f'"seed": {seed}}}}}\n')
                f.write('{"correct": true, "attempted": 1, "failed": 0, '
                        '"metrics": {"setup_s": {"value": %s, "unit": "s"}}}\n'
                        % value)
        runs = compare.load_runs(path)
        os.remove(path)
        self.assertEqual([p["seed"] for p, _ in runs], [1, 2])
        self.assertEqual(runs[1][1]["metrics"]["setup_s"]["value"], 11.0)


class ProgramSelfTest(unittest.TestCase):
    def test_selftest_passes(self):
        bdir = run.build_dir()
        self.assertTrue(run.build(bdir), "perfbench does not build")
        done = subprocess.run([os.path.join(bdir, "perfbench"), "--selftest"],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
