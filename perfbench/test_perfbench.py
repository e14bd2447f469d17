#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_perfbench.py

Runs every workload briefly through run.py — those BENCHMARK.json lists
and the direct ones it does not (seismic, heat_tiled): untraced on two
seeds, traced on one. Each run must exit 0 and end with a result line
that is correct, has attempted > 0 and zero failures, and carries exactly
the metrics BENCHMARK.json names for its mode, each with its unit and a
finite value. A run in a directory that holds only BENCHMARK.json and
the benchmark must fail without printing a result. Exits non-zero on the
first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
# Workloads the binary runs that BENCHMARK.json does not list (README.md).
UNLISTED = ["seismic", "heat_tiled"]


def run(cwd, workload, seed, trace):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def check(spec, workload, seed, trace):
    proc = run(ROOT, workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"FAIL {where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        sys.exit(f"FAIL {where}: correct={result['correct']} "
                 f"attempted={result['attempted']} failed={result['failed']}"
                 f"\n{proc.stdout[-3000:]}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in want):
        sys.exit(f"FAIL {where}: metrics {sorted(got)}")
    for m in want:
        value = got[m["name"]]
        if value["unit"] != m["unit"] or not math.isfinite(value["value"]):
            sys.exit(f"FAIL {where}: {m['name']} = {value}")
        if not trace and value["value"] <= 0:
            sys.exit(f"FAIL {where}: {m['name']} is not positive")
    print(f"ok {where}: {result['attempted']} operations, "
          f"{len(got)} metrics", flush=True)


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "seismic", 1, 0)
        if proc.returncode == 0 or proc.stdout.strip():
            sys.exit("FAIL: a checkout without sources printed a result")
    print("ok: refuses to run without the repository's sources")


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    for name in names + [n for n in UNLISTED if n not in names]:
        for seed in (1, 2):
            check(spec, name, seed, 0)
        check(spec, name, 1, 1)
    check_refuses_without_sources()
    print("all perfbench checks passed")


if __name__ == "__main__":
    main()
