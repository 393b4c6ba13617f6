#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_light --seed 1 --seconds 10 --trace 0

The harness (perfbench/src) and the library sources (src/) are compiled
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) with
CMake; the build is incremental, so only the first run in a checkout pays
for it. Build output goes to stderr. The benchmark's own output, ending
with one JSON line, goes to stdout; the exit code is the benchmark's.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build(build_dir):
    """Configures once, then builds incrementally (cmake --build re-runs the
    configure step by itself when a CMakeLists.txt or source glob changes)."""
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        return fail("library sources (src/) not found next to perfbench/")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not build(build_dir):
        return fail("build failed")
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "fts_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        return fail("benchmark printed no result line") if done.returncode == 0 \
            else done.returncode
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
