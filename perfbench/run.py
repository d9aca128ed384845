#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload single_site --seed 1 --seconds 30 --trace 0

The build goes to .bench_build/perfbench (CMake, Release, assertions on);
later calls rebuild only what changed. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result. With
--trace 1 the spans are written to .bench_build/trace-<workload>.json.

With --trace 0 it first starts SETUP_PROCESSES short processes that only
set up and print their set-up time, so every set-up sample counts from a
process start; setup_s is their median together with the measuring
process's own.

    python3 perfbench/run.py --selftest     builds and runs the self-tests
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_PROCESSES = 8


def build(target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, target)


def setup_samples(command, deadline):
    """Set-up times of SETUP_PROCESSES fresh processes, as strings."""
    samples = []
    for _ in range(SETUP_PROCESSES):
        out = subprocess.run(command + ["--setup-only"], cwd=ROOT,
                             stdout=subprocess.PIPE, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        samples.append(out.stdout.split()[-1])
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["single_site", "dist_scale", "rt_threads"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build("perfbench_selftest" if args.selftest else "perfbench")
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([binary]).returncode

    # A traced run spends about twice --seconds (passes, one thread pass,
    # probes); the rest covers set-up and the check pass.
    deadline = time.monotonic() + 2 * args.seconds + 90
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--expected", os.path.join(BENCH, "expected.json")]
    try:
        if args.trace:
            command += ["--trace-out", os.path.join(
                ROOT, ".bench_build", f"trace-{args.workload}.json")]
        else:
            command += ["--setup-samples",
                        ",".join(setup_samples(command, deadline))]
        return subprocess.run(
            command, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic())).returncode
    except subprocess.CalledProcessError as error:
        print(f"perfbench: set-up process failed: {error}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
