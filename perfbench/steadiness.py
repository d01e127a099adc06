#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics.

    python3 perfbench/steadiness.py --workloads auth_paper serve_poisson \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--out spread.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, and
prints for every end-to-end metric the median of its values and the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of that median, next to the metric's bound from
BENCHMARK.json; then the same for the unscaled timings of the
description line. Run from the repository root.
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
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit("%s seed %d failed:\n%s" % (workload, seed, out.stderr))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("%s seed %d: output check failed:\n%s"
                 % (workload, seed, out.stderr))
    unscaled = json.loads(lines[-2]).get("unscaled", {})
    return ({k: v["value"] for k, v in result["metrics"].items()},
            unscaled)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--out")
    args = p.parse_args()
    report = {}
    for workload in args.workloads:
        runs, unscaled = [], []
        for s in args.seeds:
            metrics, raw = run_once(workload, s, spec["run_seconds"])
            runs.append(metrics)
            unscaled.append(raw)
            print("%-14s seed %-4d %s" % (workload, s, " ".join(
                "%s=%.6g" % (k, v) for k, v in metrics.items())), flush=True)
        rows = {}
        for name in bounds:
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            spread = (q[2] - q[0]) / med if med else float("inf")
            rows[name] = {"median": med, "spread": spread,
                          "bound": bounds[name], "values": values}
            print("%-14s %-22s median %-12.6g spread %6.3f  bound %.2f"
                  % (workload, name, med, spread, bounds[name]), flush=True)
        for name in unscaled[0]:
            values = [r[name] for r in unscaled]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4)
            print("%-14s unscaled %-13s median %-12.6g spread %6.3f"
                  % (workload, name, med, (q[2] - q[0]) / med), flush=True)
        report[workload] = {"seeds": args.seeds, "metrics": rows,
                            "unscaled": unscaled}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
