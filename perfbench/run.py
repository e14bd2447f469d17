#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload seismic|heat_tiled|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from any directory; the build lands in .bench_build/ at the root of
the checkout (configured once, then rebuilt incrementally). Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. Exits non-zero without a result when the build fails, e.g. when
the repository's sources are missing.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(min(4, os.cpu_count() or 1))
        step = ["cmake", "--build", BUILD, "-j", jobs]
        return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    args = [BINARY] + sys.argv[1:] + ["--root", ROOT]
    os.execv(BINARY, args)


if __name__ == "__main__":
    sys.exit(main())
