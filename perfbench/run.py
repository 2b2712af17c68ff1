#!/usr/bin/env python3
"""Builds and runs the ForeCache serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload push64|paper_sync|disk_churn \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (a CMake package that
compiles ../src) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that variable is set; later runs rebuild
incrementally. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result line. The exit code is the
benchmark's: nonzero when a request or a correctness check failed, or when
the sources are missing or do not build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: no ForeCache sources at %s/src" % ROOT, file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print("perfbench: %s failed: %s" % (step[:2], err), file=sys.stderr)
            return None
        if done.returncode != 0:
            print("perfbench: %s exited %d" % (" ".join(step[:2]),
                                               done.returncode), file=sys.stderr)
            return None
    binary = os.path.join(out_dir, "forecache_perfbench")
    return binary if os.path.exists(binary) else None


def main(argv):
    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        return 1
    sys.stdout.flush()
    try:
        return subprocess.run([binary] + argv + ["--scratch", out_dir],
                              cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
