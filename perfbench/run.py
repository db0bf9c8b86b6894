#!/usr/bin/env python3
"""Builds the datapath benchmark from source and runs one workload.

    python3 perfbench/run.py --workload rx_stream --seed 1 --seconds 10 --trace 0

The first call in a checkout configures and builds perfbench/.build (the
library sources under src/ plus the benchmark's own files); later calls only
let the build system confirm it is up to date. Build output goes to stderr;
stdout carries the benchmark's own output, whose last line is the JSON result.
A traced run (--trace 1) also writes the first of its spans to
perfbench/.build/traces/<workload>.csv.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, ".build")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("rx_stream", "udp_rr", "tx_jumbo", "rx_flows_mq")
# Set-up, warm-up, the determinism replay and the checks add a few seconds to
# the measured time; anything far beyond that is a hang.
SLACK_SECONDS = 150


def build():
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Serialises concurrent first runs in one checkout.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
                return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not build():
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s.csv" % args.workload)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=args.seconds + SLACK_SECONDS)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.stderr.write("perfbench: run exceeded %.0f s\n" % (args.seconds + SLACK_SECONDS))
        return 1
    sys.stdout.write(done.stdout.decode())
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
