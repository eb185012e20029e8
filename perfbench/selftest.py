#!/usr/bin/env python3
"""Self-test of the benchmark's output check.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it makes three short
runs through run.py and checks the result line:

  clean              correct is true and failed is 0;
  --inject mismatch  one input's reference output is corrupted, as a
                     miscompiled program would print, so the evals of that
                     input count as failed and correct is false;
  --inject error     the measured engines get a 1-byte heap quota, so evals
                     that allocate end in OutOfMemory and count as failed.

Exits 1 if a wrong output or an error is not counted.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["suite-trace", "suite-interp", "serve-churn", "tier-hostile"]


def run(workload, inject=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", "0"]
    if inject:
        cmd += ["--inject", inject]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def main():
    problems = []
    for w in WORKLOADS:
        for inject in (None, "mismatch", "error"):
            r = run(w, inject)
            clean = inject is None
            ok = (r["correct"] and r["failed"] == 0) if clean else \
                 (not r["correct"] and 0 < r["failed"] <= r["attempted"])
            print("%-13s %-9s attempted=%-6d failed=%-6d %s" %
                  (w, inject or "clean", r["attempted"], r["failed"],
                   "ok" if ok else "WRONG"))
            if not ok:
                problems.append("%s/%s" % (w, inject or "clean"))
    if problems:
        print("failures not counted as expected: " + ", ".join(problems))
        sys.exit(1)


if __name__ == "__main__":
    main()
