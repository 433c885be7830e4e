#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

Runs every workload once per seed, `--runs` seeds in a set, `--sets`
sets in a row, through the command in BENCHMARK.json, and prints for
each workload and end-to-end metric the median and the distance between
the first and third quartiles as a share of the median. Exits 1 when a
spread (set-up time aside) exceeds the metric's bound, or when a later
set's median is worse than the first set's by more than the bound.

    python3 perfbench/spread.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--first-seed 1] [--seconds N] [--verbose]
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, check=False)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    if p.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}{p.stderr[-2000:]}")
    result = json.loads(last)
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect output\n{p.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    seconds = a.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    first = {}
    for s in range(a.sets):
        values = {w: {m: [] for m in metrics} for w in workloads}
        for i in range(a.runs):
            seed = a.first_seed + s * a.runs + i
            for w in workloads:
                for m, v in run(bench["command"], w, seed, seconds).items():
                    values[w][m].append(v)
        print(f"set {s + 1}: seeds {a.first_seed + s * a.runs}..{a.first_seed + (s + 1) * a.runs - 1}")
        for w in workloads:
            for m, spec in metrics.items():
                q1, med, q3 = statistics.quantiles(values[w][m], n=4)
                spread = (q3 - q1) / med
                flag = ""
                if m != "setup_s" and spread > spec["bound"]:
                    flag, ok = "  SPREAD OVER BOUND", False
                if s == 0:
                    first[(w, m)] = med
                else:
                    base = first[(w, m)]
                    worse = (med - base) / base if spec["better"] == "lower" else (base - med) / base
                    if worse > spec["bound"]:
                        flag, ok = flag + f"  MEDIAN WORSE BY {worse:.3f}", False
                print(f"  {w:<14} {m:<10} median {med:<14.6g} spread {spread:6.3f}"
                      f" (bound {spec['bound']}, third {spec['bound'] / 3:.3f}){flag}")
                if a.verbose:
                    print("      " + " ".join(f"{v:.6g}" for v in values[w][m]))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
