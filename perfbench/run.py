#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The program's libraries and the benchmark
(perfbench/src/) are compiled from source (perfbench/CMakeLists.txt, Release) into
.bench_build/perfbench, then fedrec_perfbench runs the workload. Its stdout
is passed through unchanged: the run context, a table of every metric with
unit and sample count, and as the last line the JSON result. Traced runs
also write a Chrome trace to .bench_build/perfbench/traces/.

Exits nonzero without a result when the sources are missing, the build
fails, or the run fails a correctness check.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "fedrec_perfbench")
WORKLOADS = ("attack_ml100k", "defended_catalogue", "socket_fleet")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "fedrec_perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(step))


def source_revision():
    """git HEAD when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources (src/) not found next to perfbench/")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--rev", source_revision()]
    if args.trace == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
