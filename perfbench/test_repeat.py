#!/usr/bin/env python3
"""Exact-repeat check of the benchmark's count metrics.

Runs the traced (--trace 1) variant of each single-client workload twice
under one seed and requires every count metric below to repeat exactly,
and every answer to verify. The counts come from a fixed-length traced
phase driven by one client, so any difference means the program or the
benchmark lost determinism. Run from the root of a source checkout:

    python3 perfbench/test_repeat.py [--seed N]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COUNTS = {
    "disk_mc_threshold": [
        "index.node_accesses", "index.leaf_accesses", "index.candidates",
        "filter.precision", "buffer.hit_rate", "buffer.misses_per_query",
        "buffer.evictions_per_query",
        "paper.cipq_pexp.node_accesses", "paper.cipq_pexp.candidates",
        "paper.cipq_pexp.qual_evals", "paper.ciuq_pti.node_accesses",
        "paper.ciuq_pti.candidates", "paper.ciuq_pti.qual_evals",
    ],
    "moving_churn": [
        "continuous.validations", "continuous.reevaluations",
        "continuous.reuse_ratio", "continuous.reeval_exit_share",
        "continuous.reeval_epoch_share", "cache.exact_hits",
        "cache.containment_hits", "cache.invalidations", "cache.evictions",
        "update.pti_refreshes", "update.pti_rebuilds", "update.resplits",
    ],
}


def traced_run(workload, seed):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", "2", "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True)
    return json.loads(run.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description="exact-repeat check")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    problems = []
    for workload, names in COUNTS.items():
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        for run in (first, second):
            if not run["correct"] or run["failed"] != 0:
                problems.append("%s: %d of %d operations failed" %
                                (workload, run["failed"], run["attempted"]))
        for name in names:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print("%-18s %-32s %14r %14r  %s" % (workload, name, a, b, status))
            if a != b:
                problems.append("%s: %s %r != %r" % (workload, name, a, b))
    for problem in problems:
        print("FAIL " + problem, file=sys.stderr)
    print("exact-repeat check: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
