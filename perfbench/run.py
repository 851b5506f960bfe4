#!/usr/bin/env python3
"""Builds and runs the repo benchmark.

    python3 perfbench/run.py --workload dht --seed 1 --seconds 10 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (CMake) into $CARGO_TARGET_DIR, default .bench_build; later runs
only rebuild what changed. Build output goes to stderr; the benchmark's
own stdout is passed through, its last line being the JSON result. The exit
code is the benchmark's: 0 only when every check passed.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dht", "rma_am", "rma_socket", "inject")
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "upcxx", "upcxx.hpp")):
        sys.stderr.write("perfbench: repository sources (src/) not found\n")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="test hook: corrupt one expected byte")
    a = ap.parse_args()
    if a.seconds < 1 or a.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace)]
    if a.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.csv" % (a.workload, a.seed))]
    if a.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
