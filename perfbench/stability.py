#!/usr/bin/env python3
"""Runs each workload several times, each with its own seed, and prints the
median and quartiles of every end-to-end metric next to the bound
BENCHMARK.json fixes for it.

    python3 perfbench/stability.py [--runs 10] [--first-seed 1]
                                   [--workloads rx_stream,udp_rr] [--seconds S]

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is steady when its spread stays
below a third of its bound (setup_s has no spread requirement, only its
median is compared between two sets of runs). --out FILE also writes every
run's JSON result. Exits 1 if any run fails or reports correct=false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr.decode()[-2000:])
        return None
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED %s" % (workload, seed, result))
                ok = False
                continue
            runs.append(result)
            print("%s seed %d: attempted %d failed %d" % (workload, seed, result["attempted"],
                                                         result["failed"]), flush=True)
        results[workload] = runs
        if len(runs) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%s: failed share %s" % (workload, shares))
        print("  %-34s %14s %14s %14s %8s %7s" % ("metric", "q1", "median", "q3", "spread",
                                                  "bound"))
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = metric.get("bound")
            flag = ""
            if bound is not None and metric["name"] != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
            print("  %-34s %14.6g %14.6g %14.6g %7.2f%% %7s%s" % (
                metric["name"], q1, median, q3, 100 * spread,
                "" if bound is None else "%.0f%%" % (100 * bound), flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
