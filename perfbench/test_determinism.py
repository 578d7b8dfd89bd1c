#!/usr/bin/env python3
"""The benchmark's own test: simulated metrics and layer counts repeat
exactly for a seed.

    python3 perfbench/test_determinism.py [--workload NAME ...] [--seed N]

For each workload, runs perfbench/run.py twice with --trace 0 and twice with
--trace 1 on one seed and a short timed phase, and fails unless every run
passes its correctness checks and these figures agree exactly between the
two runs: sim_bundles_per_s and every per-layer metric
whose unit is a count (oram.walks, evm.instructions_per_bundle,
durability.journal_records, pagedstore.misses, ...). They are taken over a
fixed window of bundles, so host speed must not move them.
"""
import argparse
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["oram-static", "evm-local", "live-durable"]
REQUIRED_COUNTS = ["oram.walks", "evm.instructions_per_bundle",
                   "durability.journal_records", "pagedstore.misses"]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL {workload} --trace {trace}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"FAIL {workload} --trace {trace}: {result['failed']} failed")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    failures = 0
    for workload in args.workload or WORKLOADS:
        e2e = [run(workload, args.seed, 0) for _ in range(2)]
        layers = [run(workload, args.seed, 1) for _ in range(2)]
        deterministic = ["sim_bundles_per_s"]
        counts = [name for name, m in layers[0].items() if m["unit"] == "count"]
        missing = [name for name in REQUIRED_COUNTS if name not in counts]
        if missing:
            print(f"FAIL {workload}: no count metric {missing}")
            failures += 1
        for name, pair in [(n, e2e) for n in deterministic] + [(n, layers) for n in counts]:
            a, b = (m[name]["value"] for m in pair)
            if a != b:
                print(f"FAIL {workload}: {name} {a} != {b}")
                failures += 1
        print(f"{workload}: {len(deterministic) + len(counts)} figures checked")
    if failures:
        raise SystemExit(f"{failures} mismatches")
    print("OK")


if __name__ == "__main__":
    main()
