#!/usr/bin/env python3
"""Builds bench_e2e from this checkout's sources and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); scratch files and, with --trace 1, the Chrome traces
go under it too. The last line of standard output is the run's JSON result;
build output goes to standard error. Exits non-zero, printing no result,
when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    command = [os.path.join(build_dir, "bench_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--tmp", os.path.join(build_dir, "tmp")]
    if args.trace:
        command += ["--trace", os.path.join(build_dir, "trace")]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
