#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig9-agg, opt-sweep, tier1-grape, qaiccd-mix (see
BENCHMARK.json and perfbench/src/main.cc). The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and is
incremental, so only the first run of a checkout compiles. Build output
goes to stderr; the last line on stdout is the result JSON. The exit
status is qaic_perfbench's: 0 only when every output passed its checks.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9-agg", "opt-sweep", "tier1-grape", "qaiccd-mix")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(out):
    """Configures (once) and builds qaic_perfbench and qaiccd under lock."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(out, f))
                   for f in ("build.ninja", "Makefile")):
            configure = ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                       stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reduced", action="store_true",
                        help="shrunken inputs (the self-test)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record output digests instead of checking")
    args = parser.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    command = [os.path.join(out, "qaic_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--qaiccd", os.path.join(out, "qaiccd"),
               "--reference", os.path.join(HERE, "reference", "digests.tsv")]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans-dir", spans]
    if args.reduced:
        command.append("--reduced")
    if args.write_reference:
        command.append("--write-reference")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
