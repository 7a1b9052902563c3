#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload pagerank-inmem --seed 1 --seconds 12 --trace 0

Run from the repository root. Builds the library and the perfbench binary into
$CARGO_TARGET_DIR (default .bench_build), generates the seeded inputs and
oracles into .bench_data (cached per seed, outside every timed interval),
runs the workload in a process of its own and prints its result object as the
last line of standard output. See perfbench/README.md for the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pagerank-inmem", "pagerank-ooc", "serve-mixed")
KEEP_SEEDS = 2  # cached input sets kept on disk (each full set is ~0.4 GB)
BUILD_TIMEOUT_S = 850
RUN_DEADLINE_S = 170  # prepare + run, after the build


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def in_root(path):
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    """Configures and builds perfbench; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build failed: {e}")
            return None
        if proc.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {proc.returncode}")
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def prune_inputs(data_root, keep):
    """Keeps the `keep` most recently used seed directories."""
    if not os.path.isdir(data_root):
        return
    dirs = [os.path.join(data_root, d) for d in os.listdir(data_root)]
    dirs = sorted((d for d in dirs if os.path.isdir(d)), key=os.path.getmtime, reverse=True)
    for stale in dirs[keep:]:
        shutil.rmtree(stale, ignore_errors=True)


def run_step(cmd, deadline):
    """Runs one perfbench step; returns its stdout lines or None on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"timed out: {' '.join(cmd)}")
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(line + "\n" for line in lines))
        log(f"{' '.join(cmd[:2])} exited {proc.returncode}")
        return None
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="perturb the oracle so verification must fail (tests only)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "inmem_engine.h")):
        log(f"library sources not found under {ROOT}/src")
        return 2
    build_dir = os.path.join(in_root(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
                             "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    deadline = time.monotonic() + RUN_DEADLINE_S
    data_root = os.path.join(ROOT, ".bench_data")
    data = os.path.join(data_root, f"seed-{args.seed}" + ("-smoke" if args.smoke else ""))
    os.makedirs(data, exist_ok=True)
    os.utime(data)  # most recently used
    prune_inputs(data_root, KEEP_SEEDS)
    scratch = os.path.join(ROOT, ".bench_scratch")
    out = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(out, exist_ok=True)

    common = [f"--workload={args.workload}", f"--seed={args.seed}", f"--data={data}"]
    if args.smoke:
        common.append("--smoke")
    prepared = run_step([binary, "prepare"] + common, deadline)
    if prepared is None:
        return 1
    cmd = [binary, "run"] + common + [f"--seconds={args.seconds}", f"--trace={args.trace}",
                                      f"--scratch={scratch}", f"--out={out}"]
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    lines = run_step(cmd, deadline)
    if not lines or not lines[-1].startswith("{"):
        log("no result line")
        return 1
    sys.stdout.write("".join(line + "\n" for line in prepared + lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
