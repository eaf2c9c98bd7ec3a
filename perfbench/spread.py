#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload olap --seeds 1-10 [--seconds 10] [--trace 0]

For every metric of the runs it prints the median and the distance between
the first and third quartile as a share of the median (quartiles as
statistics.quantiles(values, n=4) gives them).  --out FILE also saves every
run's result, and --against FILE compares this set's medians with a saved
set's.  Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join("perfbench", "run.py")


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def medians(runs):
    names = runs[0]["metrics"].keys()
    return {n: statistics.median(r["metrics"][n]["value"] for r in runs) for n in names}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--against")
    a = ap.parse_args()
    runs = []
    for s in seeds(a.seeds):
        r = run_once(a.workload, s, a.seconds, a.trace)
        if not r["correct"] or r["failed"]:
            sys.exit(f"seed {s}: correct={r['correct']} failed={r['failed']}")
        runs.append(r)
        print(f"seed {s}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in r["metrics"].items()), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(runs, f)
    meds = medians(runs)
    old = medians(json.load(open(a.against))) if a.against else {}
    print(f"{a.workload}: {len(runs)} runs")
    for n, med in meds.items():
        vals = [r["metrics"][n]["value"] for r in runs]
        line = f"  {n:26s} median {med:14.6g}"
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"  iqr/median {(q3 - q1) / med:7.4f}"
        if n in old and old[n]:
            line += f"  vs saved median {(med - old[n]) / old[n]:+7.4f}"
        print(line)


if __name__ == "__main__":
    main()
