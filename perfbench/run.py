#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the single-threaded runner from source into .bench_build/perfbench
(the first run in a checkout compiles; later runs only re-check the build),
then runs one workload and passes its report through.  The runner's last
stdout line is the JSON result; build output goes to stderr.

  python3 perfbench/run.py --workload churn-sweep --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --test     # build and run the benchmark's own tests

See perfbench/BENCHMARK.md for the workloads and metrics.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def step(cmd):
    if subprocess.run(cmd, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno()).returncode:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def keep_in_checkout():
    """Points temporary files (compiler scratch included) into the build tree."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp


def build(targets):
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        step(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        step(["cmake", "--build", BUILD, "-j", jobs, "--target", *targets])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="churn-sweep, rr-1k, daemon-stream or explore-search")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    keep_in_checkout()

    # After the build the runner replaces this process, so signals reach the
    # process that measures and nothing is left running behind it.
    if args.test:
        build(["perfbench_tests"])
        os.chdir(BUILD)
        os.execv(os.path.join(BUILD, "perfbench_tests"), ["perfbench_tests"])
    if args.workload is None:
        parser.error("--workload is required")

    build(["perfbench"])
    runner = os.path.join(BUILD, "perfbench")
    os.execv(runner, [
        runner,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(BUILD_ROOT, "work"),
        "--spec", os.path.join(ROOT, "BENCHMARK.json"),
    ])


if __name__ == "__main__":
    main()
