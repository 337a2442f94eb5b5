#!/usr/bin/env python3
"""Build the routebench harness from this checkout's src/ and run one workload.

Usage, from the repository root:

    python3 routebench/run.py --workload resident-zipf --seed 1 \
        --seconds 10 --trace 0

Builds into $CARGO_TARGET_DIR/routebench (default .bench_build/routebench)
with the root build's Release flags, runs the checker test, prepares the
artifact store when the workload needs one, runs the harness, and prints
its JSON result as the last line of stdout. Build output and the
harness's log go to stderr. Exits non-zero, without a result, if the
build, the checker test or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

WORKLOADS = ("resident-zipf", "spill-uniform", "warm-restart")
PREPARED = ("warm-restart",)
# Prepare plus run must end within this many seconds after the build.
RUN_BUDGET_S = 170


def fail(msg):
    print(f"routebench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout=None):
    return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout).returncode


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run(["cmake", "-S", "routebench", "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    if run(["cmake", "--build", build_dir, "-j", jobs]) != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile(os.path.join("src", "api", "registry.h")):
        fail("run from the repository root: src/ is missing")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "routebench")
    build(build_dir)
    if run([os.path.join(build_dir, "routebench_checker_test")]) != 0:
        fail("checker test failed")

    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    harness = os.path.join(build_dir, "routebench_harness")
    common = [f"--workload={args.workload}", f"--work={work}"]
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.workload in PREPARED:
            if run([harness, "prepare"] + common,
                   deadline - time.monotonic()) != 0:
                fail("prepare failed")
        proc = subprocess.run(
            [harness, "run"] + common +
            [f"--seed={args.seed}", f"--seconds={args.seconds}",
             f"--trace={args.trace}"],
            stdout=subprocess.PIPE, text=True,
            timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail("harness timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has unexpected keys")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
