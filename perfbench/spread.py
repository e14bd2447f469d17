#!/usr/bin/env python3
"""Measures run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                                [--workloads seismic,heat_tiled]

Runs each workload once per seed through run.py (untraced), then prints
per metric the median, the quartiles and the spread (Q3 - Q1) / median,
as statistics.quantiles(n=4) gives them, against the metric's bound in
BENCHMARK.json. A spread at or above a third of its bound is marked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    a = p.parse_args()
    worst = 0.0
    for workload in a.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(a.first_seed, a.first_seed + a.runs):
            r = run(workload, seed, spec["run_seconds"])
            ok = r["correct"] and r["failed"] == 0
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']}",
                  flush=True)
            if not ok:
                worst = float("inf")
            for name in values:
                values[name].append(r["metrics"][name]["value"])
        print(f"\n{workload}: {a.runs} runs")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            flag = " <-- over a third of the bound" \
                if spread >= m["bound"] / 3 and m["name"] != "setup_s" else ""
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"  {m['name']:14s} median {med:12.5g} {m['unit']:8s} "
                  f"Q1 {q1:11.5g} Q3 {q3:11.5g} spread {spread:6.3f} "
                  f"(bound {m['bound']}){flag}")
        print(flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
