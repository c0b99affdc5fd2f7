#!/usr/bin/env python3
"""Self-test of the benchmark on reduced inputs.

Usage, from the repository root:

    python3 perfbench/selftest.py [--workload NAME ...]

Runs every workload (or the named ones) on its reduced input: twice
traced and once untraced. It asserts that

  * every run exits 0 and reports correct outputs;
  * the untraced run reports exactly the end-to-end metrics of
    BENCHMARK.json and the traced runs exactly the per-layer ones,
    each with the unit BENCHMARK.json gives it;
  * every count metric and every output digest repeats exactly
    between the two traced runs.

service.peak_queue_depth is exempt from the repeat check: it is a
high-water mark, and whether the second request in flight reaches the
queue before the worker takes the first depends on thread timing.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMING_GAUGES = {"service.peak_queue_depth"}
DIGEST = re.compile(r"latency_ns=\S+ swaps=\d+ instructions=\d+")


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--reduced"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{done.returncode}\n{done.stdout[-2000:]}"
                             f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digests = [DIGEST.search(line).group(0) for line in lines
               if line.startswith(("cell ", "request "))]
    return result, digests


def check_metrics(workload, result, expected):
    if not result["correct"] or result["failed"] != 0:
        raise AssertionError(f"{workload}: outputs failed their checks")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"{workload}: metrics {sorted(metrics)} != "
                             f"{sorted(expected)}")
    for name, metric in metrics.items():
        if metric["unit"] != expected[name]:
            raise AssertionError(f"{workload}: {name} unit "
                                 f"{metric['unit']!r}, expected "
                                 f"{expected[name]!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    for workload in args.workload or names:
        untraced, _ = run(workload, 0)
        check_metrics(workload, untraced, end_to_end)
        first, first_digests = run(workload, 1)
        second, second_digests = run(workload, 1)
        for result in (first, second):
            check_metrics(workload, result, per_layer)
        if not first_digests or first_digests != second_digests:
            raise AssertionError(f"{workload}: digests differ between runs")
        for name, unit in per_layer.items():
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if unit == "count" and name not in TIMING_GAUGES and a != b:
                raise AssertionError(f"{workload}: count {name} {a} != {b}")
        print(f"{workload}: ok ({len(first_digests)} digests, "
              f"{len(per_layer)} per-layer metrics repeat)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
