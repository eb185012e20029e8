#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the engine from src/ together with
the benchmark program into .bench_build/perfbench, runs one measurement and
prints the program's notes followed by one JSON result line. The result's
metrics are exactly the end-to-end (--trace 0) or per-layer (--trace 1)
set named in BENCHMARK.json; a per-layer metric the workload never
reaches reads 0. Exits non-zero without a result line when the build or
the set-up fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    steps = [["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench"]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--inject", choices=["mismatch", "error"],
                    help="self-test fault (see selftest.py)")
    a = ap.parse_args()

    declared = declared_metrics(a.trace)
    build()
    cmd = [BINARY, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--programs", os.path.join(HERE, "programs")]
    if a.inject:
        cmd += ["--inject", a.inject]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("benchmark exited with code %d" % proc.returncode)

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    for m in declared:
        if m["name"] not in metrics:
            if not a.trace:
                fail("end-to-end metric %s was not measured" % m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        elif metrics[m["name"]]["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (m["name"], metrics[m["name"]]["unit"], m["unit"]))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
