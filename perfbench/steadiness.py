#!/usr/bin/env python3
"""Steadiness report: runs each workload N times and prints, for every
end-to-end metric, the median, the quartiles and (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--workload serve_solve ...]
        [--seconds S] [--first-seed 1]

Run from the repository root. Seeds alternate between two series
(first-seed, first-seed + 1000, first-seed + 1, ...), so neighbouring runs
never share a seed. A metric whose spread exceeds a third of its bound is
flagged: the benchmark should be made steadier before it is trusted.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + (i // 2) + (1000 if i % 2 else 0)
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", "%g" % args.seconds, "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                sys.exit("run %d of %s failed" % (i, workload))
            result = json.loads(out.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: correct=%s failed=%d" % (
                    workload, seed, result["correct"], result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n%s (%d runs, %gs each)" % (workload, args.runs, args.seconds))
        print("%-20s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name] / 3:
                flag = "  <-- above bound/3"
                worst = max(worst, spread / bounds[name])
            print("%-20s %12.5g %12.5g %12.5g %8.3f %6.2f%s" % (
                name, med, q1, q3, spread, bounds[name], flag))
    return 1 if worst > 0 else 0


if __name__ == "__main__":
    sys.exit(main())
