#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload briefly, untraced and
traced, and checks that each run exits 0, reports correct=true with at least
one attempted operation, and emits exactly the metrics BENCHMARK.json names
(end_to_end untraced, per_layer traced) with their units.

    python3 perfbench/smoke.py [--seconds 1]
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    problems = []
    for workload in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = "%s trace=%d" % (workload["name"], trace)
            before = len(problems)
            command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                       workload["name"], "--seed", "7", "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  cwd=ROOT)
            lines = done.stdout.decode().strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d" % (label, done.returncode))
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append("%s: correct=%s attempted=%s" % (
                    label, result["correct"], result["attempted"]))
            emitted = result["metrics"]
            for metric in declared:
                got = emitted.get(metric["name"])
                if got is None:
                    problems.append("%s: %s missing" % (label, metric["name"]))
                elif got["unit"] != metric["unit"]:
                    problems.append("%s: %s unit %s, declared %s" % (
                        label, metric["name"], got["unit"], metric["unit"]))
                elif not math.isfinite(got["value"]):
                    problems.append("%s: %s is not finite" % (label, metric["name"]))
            extra = set(emitted) - {m["name"] for m in declared}
            if extra:
                problems.append("%s: undeclared metrics %s" % (label, sorted(extra)))
            print("%s: %s" % (label, "ok" if len(problems) == before else "FAILED"), flush=True)
    for problem in problems:
        print("PROBLEM " + problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
