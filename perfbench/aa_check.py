#!/usr/bin/env python3
"""A/A check: two sets of runs of one build, compared against the bounds.

Usage (from the repository root):

    python3 perfbench/aa_check.py [--workloads push64,paper_sync,disk_churn]
        [--seeds 10] [--seconds S] [--trace 0]

For each workload it runs perfbench/run.py twice per seed (seeds 1..N),
once for set A and once for set B, alternating which set runs first seed by
seed. It prints, per end-to-end metric (or per-layer metric with
--trace 1), each set's median and quartiles (statistics.quantiles(values,
n=4)), the spread (Q3 - Q1) / median, and whether the sets agree: every
spread of a bounded metric, setup_s aside, is within its bound from
BENCHMARK.json, and the two medians differ by at most the bound, in either
direction, as a share of set A's median. Exits nonzero when any bounded
metric fails that check or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds),
                                   "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return median, q1, q3, spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    spec = load_spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounded = {m["name"]: m for m in spec["end_to_end"]} if not args.trace else {}
    ok = True
    for workload in workloads:
        set_a, set_b = [], []
        for seed in range(1, args.seeds + 1):
            order = (set_a, set_b) if seed % 2 else (set_b, set_a)
            for runs in order:
                metrics = run_once(spec, workload, seed, seconds, args.trace)
                if metrics is None:
                    print("%s seed %d set %s: run FAILED" %
                          (workload, seed, "A" if runs is set_a else "B"))
                    ok = False
                    continue
                runs.append(metrics)
        if len(set_a) < 2 or len(set_b) < 2:
            ok = False
            continue
        print("== %s: %d seeds x 2 sets, %g s runs" % (workload, args.seeds, seconds))
        for name in sorted(set_a[0]):
            a = summarize([r[name] for r in set_a])
            b = summarize([r[name] for r in set_b])
            cells = "  ".join("set%s median %.6g [%.6g, %.6g] spread %.3f" %
                              ((label,) + s) for label, s in (("A", a), ("B", b)))
            verdict = ""
            metric = bounded.get(name)
            if metric is not None:
                bound = metric["bound"]
                spreads_ok = name == "setup_s" or (a[3] <= bound and b[3] <= bound)
                gap = abs(b[0] - a[0]) / abs(a[0]) if a[0] else 0.0
                agree = spreads_ok and gap <= bound
                ok = ok and agree
                verdict = "  bound %.3f gap %.3f %s" % (
                    bound, gap, "OK" if agree else "FAIL")
            print("  %-36s %s%s" % (name, cells, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
