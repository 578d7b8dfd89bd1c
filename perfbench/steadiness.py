#!/usr/bin/env python3
"""Spread of every end-to-end metric over several seeds.

    python3 perfbench/steadiness.py --workload oram-static [--workload ...]
                                    [--seeds 1,2,3,4,5] [--seconds 20]

Runs perfbench/run.py once per (workload, seed) with --trace 0 and prints,
per metric, the median and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median. Host
times are shown normalized (the reported value) and raw side by side, so the
effect of the reference-kernel normalization is visible. Exits non-zero if
any run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("nan")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    raw = next(json.loads(l[4:]) for l in lines if l.startswith("raw {"))
    return result, raw


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workload:
        results = [run_once(workload, seed, args.seconds) for seed in seeds]
        print(f"\n{workload}: {len(seeds)} seeds, {args.seconds} s each")
        print(f"{'metric':<20} {'median':>12} {'spread':>8} {'raw spread':>11}")
        for name in results[0][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r, _ in results]
            raw = [raw[name] for _, raw in results if name in raw]
            raw_spread = f"{spread(raw):11.3f}" if len(raw) == len(values) else f"{'-':>11}"
            print(f"{name:<20} {statistics.median(values):12.4f} {spread(values):8.3f} {raw_spread}")
        print("values: " + json.dumps({name: [round(r["metrics"][name]["value"], 4)
                                              for r, _ in results]
                                       for name in results[0][0]["metrics"]}))


if __name__ == "__main__":
    main()
