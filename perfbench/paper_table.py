#!/usr/bin/env python3
"""Renders the paper's §6 filter/refine split from a traced disk run.

Runs disk_mc_threshold with --trace 1 and prints, per method, the mean
node accesses, filter candidates, qualification evaluations and the
filter / refine / whole-query times as a Markdown table — the form kept
in perfbench/PAPER_TABLE.md. Run from the root of a source checkout:

    python3 perfbench/paper_table.py --seed 7 > perfbench/PAPER_TABLE.md
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METHODS = ("cipq_pexp", "ciuq_pti")
COLUMNS = (("node_accesses", "node accesses", "%.2f"),
           ("candidates", "candidates", "%.2f"),
           ("qual_evals", "qual. evaluations", "%.2f"),
           ("filter_us", "filter µs", "%.1f"),
           ("refine_us", "refine µs", "%.1f"),
           ("query_us", "query µs", "%.1f"))


def main():
    parser = argparse.ArgumentParser(description="paper §6 table")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "disk_mc_threshold", "--seed", str(args.seed), "--seconds",
               "2", "--trace", "1"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True)
    lines = run.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    metrics = json.loads(lines[-1])["metrics"]

    print("# Paper §6 filter/refine split (disk_mc_threshold, traced)\n")
    print("Seed %d; %d points, %d rectangles; Gaussian issuers, Monte-Carlo "
          "with %d samples; w = %g, Qp = %g; 4K-page indexes mounted with "
          "OpenPaged, buffer %d bytes per index; %s tier, %s build, "
          "compiler %s, %d CPUs. Means over the traced queries; filter and "
          "refine are replays on the in-memory engine (see README.md).\n" %
          (args.seed, context["points"], context["uncertains"],
           context["mc_samples"], context["w"], context["qp"],
           context["buffer_bytes_per_index"], context["active_simd"],
           context["build_type"], context["compiler"], context["nproc"]))
    print("| method | " + " | ".join(c[1] for c in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 1) + "|")
    for method in METHODS:
        cells = [fmt % metrics["paper.%s.%s" % (method, key)]["value"]
                 for key, _, fmt in COLUMNS]
        print("| %s | %s |" % (method, " | ".join(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
