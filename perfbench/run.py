#!/usr/bin/env python3
"""Build the SurfNet benchmark (Release) and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig6a_batch --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds perfbench/CMakeLists.txt (the library
from src/ plus the benchmark driver) under .bench_build/perfbench; later
calls rebuild only what changed. Build output goes to stderr. The driver's
standard output is passed through: its last line is the JSON result. With
--trace 1 the recorded spans are written to
.bench_build/perfbench/spans_<workload>.csv.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fig6a_batch", "large_code_batch", "traffic_stream")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--spans-out",
                    os.path.join(BUILD, f"spans_{args.workload}.csv")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command, check=False).returncode)


if __name__ == "__main__":
    main()
