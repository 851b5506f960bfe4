#!/usr/bin/env python3
"""Tests of the repo benchmark itself.

    python3 perfbench/test_perfbench.py

Runs every workload in short mode (1 s), untraced and traced, and checks
that the printed metric names are exactly the ones BENCHMARK.json lists;
that the checker rejects a deliberately corrupted expected byte; and that
the benchmark fails, printing no result, when the repository sources are
missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("dht", "rma_am", "rma_socket", "inject")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace=0, seed=1, extra=(), cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):
    def check_names(self, trace, key):
        want = {m["name"]: m["unit"] for m in spec()[key]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                p = run(w, trace=trace)
                self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
                r = result(p)
                self.assertEqual(set(r), {"correct", "attempted", "failed",
                                          "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                self.assertEqual(got, want)
                for k, v in r["metrics"].items():
                    self.assertIsInstance(v["value"], (int, float), k)

    def test_short_runs_print_every_end_to_end_metric(self):
        self.check_names(0, "end_to_end")

    def test_traced_runs_print_every_per_layer_metric(self):
        self.check_names(1, "per_layer")

    def test_end_to_end_metrics_are_nonzero(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(run(w, seed=2))
                for k, v in r["metrics"].items():
                    self.assertGreater(v["value"], 0, k)

    def test_checker_rejects_corrupted_expected_byte(self):
        for w in ("dht", "rma_am", "inject"):
            with self.subTest(workload=w):
                p = run(w, extra=["--corrupt-expected"])
                self.assertNotEqual(p.returncode, 0)
                r = result(p)
                self.assertFalse(r["correct"])
                self.assertEqual(r["failed"], 1)

    def test_fails_without_repository_sources(self):
        scratch = os.path.join(ROOT, ".bench_build")
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as d:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
            shutil.copytree(HERE, os.path.join(d, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            p = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dht",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=d, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"metrics"', p.stdout)


if __name__ == "__main__":
    unittest.main()
