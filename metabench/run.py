#!/usr/bin/env python3
"""Build and run the MetaScope benchmark.

Usage (from the repository root):

    python3 metabench/run.py --workload stream-512 --seed 1 \
        --seconds 50 --trace 0

Configures and builds metabench/ (which compiles src/ from source) under
.bench_build/metabench, then runs the harness, which pins every worker
count to the CPUs it may use. Build output goes to stderr; the
harness's last stdout line is the JSON result. Extra arguments (--tiny,
--perturb-reference) are passed to the harness unchanged; see selftest.py.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "metabench")
BINARY = os.path.join(BUILD_DIR, "metabench")
RUN_TIMEOUT_S = 175


def workers():
    return len(os.sched_getaffinity(0))


def build():
    """Builds the harness; exits non-zero when the sources are missing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("metabench: no MetaScope sources (src/) next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "metabench",
         "-j", str(workers())],
        stdout=sys.stderr, check=True)


def harness_args(workload, seed, seconds, trace, extra=()):
    tag = "%s-seed%s-trace%s-%d" % (workload, seed, trace, os.getpid())
    return [
        BINARY, "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--work-dir", os.path.join(ROOT, ".bench_build", "work", tag),
        "--spans-out", os.path.join(ROOT, ".bench_build", "spans",
                                    tag + ".json"),
    ] + list(extra)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = p.parse_known_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("metabench: build failed: %s" % e)
    cmd = harness_args(args.workload, args.seed, args.seconds, args.trace,
                       extra)
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.exit("metabench: run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
