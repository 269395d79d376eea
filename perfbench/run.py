#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and compiles the
library and the binary (CMake, optimised) under $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only rebuild what changed. Build
output goes to stderr, so the binary's last stdout line, a JSON object with
"correct", "attempted", "failed" and "metrics", is the last line printed.
The exit status is the binary's: nonzero when a correctness gate failed, or
when the build did.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("wire_unique", "wire_zipf_cache", "batch_prefix")
# A run must finish well inside 180 s; a wedged one is killed here.
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compiled = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_root, "work-%d" % os.getpid())
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
