#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources and run one workload.

    python3 bench/e2e/run.py --workload serve_mixed --seed 1 \
        --seconds 10 --trace 0

The library and the benchmark are built into .bench_build/ at the root
of the checkout (incrementally after the first run); build output goes
to stderr. The benchmark's stdout is passed through unchanged, so its
last line is the JSON result. Each run also leaves its full result in
.bench_build/results/, and --trace 1 its Chrome trace next to it.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"


def build():
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("bench_e2e: build failed", file=sys.stderr)
        return 1
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-traced" if args.trace
                                                else "")
    cmd = [str(BUILD / "bench_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--json", str(results / f"{tag}.json")]
    if args.trace:
        cmd += ["--trace", str(results / f"{tag}-chrome.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
