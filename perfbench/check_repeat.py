#!/usr/bin/env python3
"""Exact-repeat check of the work counters.

    python3 perfbench/check_repeat.py [--seeds A B] [--seconds S]

Run from the repository root. Makes the traced run (--trace 1) of each
batch workload under two seeds and checks that every metric the run lists
as deterministic reads exactly the same in both, and that
repeat.mismatches is 0 (within a run, every eval of a program repeats the
counts of its first eval). serve-churn lists no deterministic metrics:
with two workers and off-thread compile publication, every engine count
depends on timing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH = ["suite-trace", "suite-interp", "tier-hostile"]


def traced(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1"]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True,
                           check=True).stdout.splitlines()
    names = next(json.loads(l)["deterministic"] for l in lines
                 if l.startswith('{"deterministic"'))
    metrics = json.loads(lines[-1])["metrics"]
    return {n: metrics[n]["value"] for n in names}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, nargs=2, default=[1, 7])
    ap.add_argument("--seconds", type=float, default=3)
    a = ap.parse_args()
    bad = 0
    for w in BATCH:
        first, second = (traced(w, s, a.seconds) for s in a.seeds)
        diff = sorted(n for n in first if first[n] != second.get(n))
        if first.get("repeat.mismatches", 0) or second.get("repeat.mismatches", 0):
            diff.append("repeat.mismatches")
        print("%-13s %d counters, %s" % (w, len(first),
              "identical" if not diff else "DIFFER: " + ", ".join(diff)))
        bad += bool(diff)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
