#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload eval_grid|static_lanes|fault_ckpt|all
                             [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Every call configures and builds perfbench/ (and the simulator libraries
it compiles from src/) into .bench_build/; after the first, both steps
are incremental and take well under a second.  Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.  `--workload all` runs every workload in
turn and ends with one JSON line that merges them, each metric prefixed
with its workload.  README.md in this directory explains the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["eval_grid", "static_lanes", "fault_ckpt"]


def build():
    """Configure (a no-op when nothing changed) and build incrementally;
    exit 1 on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            sys.exit(1)


def run_one(workload, args):
    """Run one workload; return (exit code, stdout text)."""
    command = [os.path.join(BUILD, "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the checks' negative self-test")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.self_test:
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_selftest")], cwd=BUILD,
            check=False).returncode)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, out = run_one(workload, args)
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            sys.exit(code)
        result = json.loads(out.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][workload + "." + name] = metric
    if len(workloads) > 1:
        print(json.dumps(merged))


if __name__ == "__main__":
    main()
