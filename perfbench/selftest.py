#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root):

    python3 perfbench/selftest.py

1. Determinism: on the pull-mode workloads (push64, paper_sync) two runs
   with the same seed serve the same request sequence (fingerprint) and
   report identical hit_rate, exact_rate, sim_latency_*, and identical
   per-layer counts and rates in the traced run.
2. Ledger: in every workload's traced run the per-layer self times sum to
   within 10% of the traced replay time (ledger.coverage in [0.9, 1.1]).
3. Every run is correct (no failed request or check).

Runs are short (--seconds 2, one set-up repetition). Exits nonzero on any
failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 7
# Per-layer metrics derived from counts, not clocks: they must repeat.
COUNT_UNITS = {"count", "fraction", "bytes", "MB"}
TIMED_FRACTIONS = {"ledger.coverage"}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
           "--setup-reps", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    # Every metric is also printed as "  name = value unit", including the
    # ones the result line does not carry.
    printed = {}
    for line in lines[:-1]:
        name, sep, rest = line.strip().partition(" = ")
        if sep and " " not in name:
            printed[name] = rest.split()[0]
    return done.returncode, result, printed


def main():
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in ("push64", "paper_sync", "disk_churn"):
        pull = workload != "disk_churn"
        runs = {}
        for trace in (0, 1):
            for rep in ((0, 1) if pull else (0,)):
                code, result, printed = run(workload, trace)
                expect(code == 0 and result.get("correct") is True,
                       "%s trace %d run %d is correct" % (workload, trace, rep))
                runs[(trace, rep)] = (result.get("metrics", {}), printed)

        traced = runs[(1, 0)][0]
        coverage = traced.get("ledger.coverage", {}).get("value", 0.0)
        expect(0.9 <= coverage <= 1.1,
               "%s ledger: self times cover %.4f of the traced replay" %
               (workload, coverage))
        if not pull:
            continue

        a, b = runs[(0, 0)][1], runs[(0, 1)][1]
        for name in ("fingerprint", "hit_rate", "exact_rate",
                     "sim_latency_ms_mean", "sim_latency_ms_p99"):
            expect(name in a and a.get(name) == b.get(name),
                   "%s %s repeats exactly" % (workload, name))
        (ta, _), (tb, _) = runs[(1, 0)], runs[(1, 1)]
        counted = [n for n, m in ta.items()
                   if m["unit"] in COUNT_UNITS and n not in TIMED_FRACTIONS]
        differing = [n for n in counted if ta[n] != tb.get(n)]
        expect(bool(counted) and not differing,
               "%s %d per-layer counts repeat exactly%s" %
               (workload, len(counted),
                "" if not differing else " (differ: %s)" % ", ".join(differing)))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
