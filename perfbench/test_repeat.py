#!/usr/bin/env python3
"""Check that the benchmark's count metrics repeat exactly.

    python3 perfbench/test_repeat.py [--seed 7] [--seconds 1] [workload ...]

Runs every workload (default: all four) twice with the same seed, once
untraced and once traced each time, and fails unless the two runs agree
exactly on every count: exec_cost_per_query, minor_words_per_query (dop-1
workloads only: at dop 2 the worker domains allocate on their own heaps),
the enum.* counters, exec.*_io, exec.cpu_ops, exec.rows_out and
rewrite.rules_fired.  Run from the root of a checkout.
"""

import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ["olap", "join_enum", "fuzz_mix", "olap_dop2"]
UNTRACED = ["exec_cost_per_query", "minor_words_per_query"]
TRACED = ["enum.subsets", "enum.splits", "enum.costed", "enum.pruned",
          "enum.pruned_frac", "exec.seq_io", "exec.rand_io", "exec.spill_io",
          "exec.cpu_ops", "exec.rows_out", "rewrite.rules_fired"]


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    r = json.loads(out.strip().splitlines()[-1])
    if not r["correct"] or r["failed"]:
        sys.exit(f"{workload}: correct={r['correct']} failed={r['failed']}")
    return {n: m["value"] for n, m in r["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    a = ap.parse_args()
    bad = 0
    for w in a.workloads:
        untraced = [n for n in UNTRACED if not (w.endswith("dop2") and n.startswith("minor"))]
        for trace, names in ((0, untraced), (1, TRACED)):
            first = run(w, a.seed, a.seconds, trace)
            second = run(w, a.seed, a.seconds, trace)
            for n in names:
                same = first[n] == second[n]
                bad += not same
                print(f"{'ok  ' if same else 'DIFF'} {w:10s} {n:24s} {first[n]!r} {second[n]!r}")
    if bad:
        sys.exit(f"{bad} count(s) differ between same-seed runs")
    print("all counts repeat exactly")


if __name__ == "__main__":
    main()
