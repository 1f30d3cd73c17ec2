#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark, per metric and workload.

    python3 bench/e2e/stability.py --runs 10 --seeds 1,2,3
    python3 bench/e2e/stability.py --runs 5 --sets 2      # two-set check

Runs every workload --runs times per set through the command in
BENCHMARK.json, cycling over --seeds and alternating workloads (and sets)
so slow drift of the host hits all of them alike. For each (metric,
workload) it prints the median, the quartiles as statistics.quantiles(n=4)
gives them, and the spread (Q3 - Q1) / median, and flags a spread wider
than the metric's bound in BENCHMARK.json. With --sets 2 it also prints
each set's median and flags sets whose medians differ by the bound or
more. The output is a markdown table. Run it from anywhere; it runs the
benchmark from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}, wall


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated seeds, cycled over the runs")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    # values[set][workload][metric] -> list over runs
    values = [{w: {} for w in workloads} for _ in range(args.sets)]
    for i in range(args.runs):
        for s in range(args.sets):
            for w in workloads:
                seed = seeds[i % len(seeds)]
                metrics, wall = run_once(bench, w, seed, seconds)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} seed {seed}"
                      f" ({wall:.1f} s): " +
                      ", ".join(f"{k}={v:.6g}" for k, v in metrics.items()),
                      file=sys.stderr, flush=True)
                for k, v in metrics.items():
                    values[s][w].setdefault(k, []).append(v)

    print(f"{args.runs} runs per workload{' and set' if args.sets > 1 else ''}"
          f", seeds {args.seeds}, {seconds} s per run\n")
    header = "| metric | workload | median | Q1 | Q3 | spread | bound |"
    rule = "|---|---|---|---|---|---|---|"
    if args.sets > 1:
        header += " set medians | set diff |"
        rule += "---|---|"
    print(header)
    print(rule)
    flagged = 0
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for w in workloads:
            pooled = sum((values[s][w][name] for s in range(args.sets)), [])
            med, q1, q3, rel = spread(pooled)
            flag = rel > bound
            row = (f"| {name} | {w} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{100 * rel:.2f}%{' **over**' if flag else ''} | "
                   f"{100 * bound:.0f}% |")
            if args.sets > 1:
                meds = [statistics.median(values[s][w][name])
                        for s in range(args.sets)]
                diff = (max(meds) - min(meds)) / min(meds)
                flag = flag or diff >= bound
                row += (" " + " / ".join(f"{m:.6g}" for m in meds) +
                        f" | {100 * diff:.2f}%"
                        f"{' **over**' if diff >= bound else ''} |")
            flagged += flag
            print(row)
    print(f"\n{flagged} (metric, workload) pair(s) outside their bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
