#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the imprecise-query service.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload wire_oneshot --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library plus one
binary) into .bench_build/perfbench; later runs rebuild incrementally.
The binary's output is passed through; its last line is the JSON result.
Before passing it on, the result is checked against BENCHMARK.json: the
metric names and units must be exactly the declared end-to-end metrics
(--trace 0) or per-layer metrics (--trace 1).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
WORKLOADS = ("wire_oneshot", "disk_mc_threshold", "moving_churn")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources at %s: run from a full source checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    command = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def check_result(line, trace):
    """Returns an error string, or None when the result matches the spec."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "or units differ" % (missing, extra)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    os.makedirs(SCRATCH, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", SCRATCH]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail("benchmark exited with code %d" % run.returncode)
    error = check_result(lines[-1], args.trace)
    if error is not None:
        sys.stderr.write(run.stdout)
        fail(error)
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
