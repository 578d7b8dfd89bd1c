#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <oram-static|evm-local|live-durable>
                             --seed N --seconds S --trace <0|1>

Run from the repository root. The first call configures and builds the
repository's libraries and the benchmark program (RelWithDebInfo) into
.bench_build/perfbench; later calls rebuild incrementally. Build output goes
to stderr, so the last line on stdout is the program's JSON result. The exit
code is the program's (non-zero on a failed build or a failed check).
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no repository sources next to perfbench/ (src/ is missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    build()
    sys.stdout.flush()
    program = os.path.join(BUILD, "perfbench")
    return subprocess.run([program] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
