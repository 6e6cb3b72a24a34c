#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads fullbatch,sampled,...]

Runs every workload --runs times, each with its own seed, through run.py
with the run_seconds of BENCHMARK.json, and prints per end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and that metric's bound. A spread at or above a third
of the bound is flagged (setup_s is reported but not flagged: its bound
limits the median, not the spread). The bounds in BENCHMARK.json were set
from this output; README.md records the figures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.first_seed + i, args.seconds)
                   for i in range(args.runs)]
        correct = all(r["correct"] for r in results)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, correct={correct}, "
              f"failed share(s)={shares}")
        print(f"  {'metric':<20} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(metric)
            flag = ""
            if metric != "setup_s" and bound is not None:
                worst = max(worst, spread / bound)
                flag = "  <-- above bound/3" if spread >= bound / 3 else ""
            print(f"  {metric:<20} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{spread:>8.4f} {bound!s:>6}{flag}")
        sys.stdout.flush()
    print(f"worst spread/bound (excluding setup_s): {worst:.3f}")


if __name__ == "__main__":
    main()
