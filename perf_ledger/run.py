#!/usr/bin/env python3
"""Builds the performance ledger and runs one workload.

Usage (from the repository root):
  python3 perf_ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures a Release tree in build-bench/ on first use (cmake -S perf_ledger),
brings the `ledger` binary up to date, then runs it with the given arguments
plus --out build-bench/ledger-out. Build output goes to stderr, so the last
line of stdout is the ledger's JSON summary. Exits non-zero, printing no
summary, if the sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(BUILD, "ledger-out")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "ledger"],
                   stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 3
    os.makedirs(OUT, exist_ok=True)
    ledger = os.path.join(BUILD, "ledger")
    return subprocess.run([ledger, *sys.argv[1:], "--out", OUT]).returncode


if __name__ == "__main__":
    sys.exit(main())
