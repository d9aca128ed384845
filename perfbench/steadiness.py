#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs one workload several times, each with another seed, and prints for
every metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the quartile spread as a share of
the median. The bounds in BENCHMARK.json must stay above these spreads.
Two more rows, read from the printed summary, show the host's slowness
and txn_per_s before it was divided out.

    python3 perfbench/steadiness.py --workload dist_scale --runs 10

Run it from the root of a checkout; it calls perfbench/run.py.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_NOTE = re.compile(r"host ([0-9.]+)x nominal, unnormalised ([0-9.]+)/s")


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    host = HOST_NOTE.search(out)
    if host:
        result["metrics"]["(host slowness)"] = {
            "value": float(host.group(1)), "unit": "x"}
        result["metrics"]["(txn_per_s unnormalised)"] = {
            "value": float(host.group(2)), "unit": "1/s"}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    for i in range(args.runs):
        result = run_once(args.workload, args.first_seed + i, seconds,
                          args.trace)
        if not result["correct"] or result["failed"]:
            print(f"run {i}: {result['failed']} failed operation(s)",
                  file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"run {i} done", file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"| metric | unit | median | q1 | q3 | spread |")
    print(f"|---|---|---|---|---|---|")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} "
              f"| {100 * spread:.2f}% |")
        print(f"{name}: " + " ".join(f"{v:.6g}" for v in vals),
              file=sys.stderr)


if __name__ == "__main__":
    main()
