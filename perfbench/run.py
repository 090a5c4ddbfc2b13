#!/usr/bin/env python3
"""Builds and runs the DRA performance benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark binary
from source into .bench_build/ (RelWithDebInfo, the repository's Tier-1
configuration); later runs only check that the build is current. The binary
runs the workload in its own process and its last stdout line is the result
object. The traced run (--trace 1) also writes its spans to
.bench_build/spans-<workload>-<seed>.json.

    python3 perfbench/run.py --make-reference

rebuilds perfbench/reference.json, the per-seed export digests every timed
op is checked against, for seeds 0-255 and the held-out seed 7919. Run it
only on code whose outputs are known good.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "dra-perfbench")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ["paper_matrix", "disks_1024", "online_session"]
# Workloads whose seed only permutes the op order: one digest table serves
# every seed.
SEED_FREE = {"paper_matrix"}
# Seeds the reference pins for every other workload: 0-255 and the held-out
# seed 7919.
SEEDS = [*range(256), 7919]
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    # Build output goes to stderr: stdout carries only the binary's result.
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, *generator,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def digests(workload, seed):
    out = subprocess.run([BINARY, "--digests", "--workload", workload,
                          "--seed", str(seed)], capture_output=True,
                         text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode:
        sys.stderr.write(out.stderr)
        fail(f"digest pass failed for {workload} seed {seed}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def make_reference():
    ref = {}
    for workload in WORKLOADS:
        if workload in SEED_FREE:
            ref[workload] = {"any_seed": digests(workload, 0)}
            continue
        ref[workload] = {str(s): digests(workload, s) for s in SEEDS}
        print(f"{workload}: {len(SEEDS)} seeds", file=sys.stderr)
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    build()
    if args.make_reference:
        make_reference()
        return 0
    if not args.workload:
        fail("--workload is required")
    if not os.path.isfile(REFERENCE):
        fail(f"missing {REFERENCE}")

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", REFERENCE]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(
            BUILD_DIR, f"spans-{args.workload}-{args.seed}.json")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
