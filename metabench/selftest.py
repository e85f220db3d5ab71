#!/usr/bin/env python3
"""Self-test of the MetaScope benchmark, at tiny scale (about a minute).

Run from the repository root:

    python3 metabench/selftest.py

It checks that:
  1. every workload named in BENCHMARK.json prints exactly the named
     end-to-end metrics (--trace 0) and per-layer metrics (--trace 1),
     with the right units, a correct result and no failed repetition;
  2. a held-out second seed gives the same metric names, no failed
     repetition and an event count within 1 % of the first seed's;
  3. the correctness gate catches a wrong cube: with the reference cube
     perturbed, every repetition fails and the run exits non-zero;
  4. a directory holding only BENCHMARK.json and the benchmark's own
     files makes run.py exit non-zero without printing a result.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "metabench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    events = None
    for line in lines:
        if line.startswith("info:"):
            fields = dict(f.split("=", 1) for f in line.split()[1:])
            events = int(fields["events"])
    return p.returncode, result, events, p.stderr


def check(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what))
    if not cond:
        sys.exit(1)


def expect_metrics(result, specs, what):
    check(result is not None and result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, what + ": correct, none failed")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    check(got == want, what + ": metric names and units " +
          ("match" if got == want else "differ: %s vs %s" % (got, want)))


def main():
    names = [w["name"] for w in SPEC["workloads"]]
    for name in names:
        code, res, events, _ = run(name, 1, 0, "--tiny")
        check(code == 0, "%s trace 0 exits 0" % name)
        expect_metrics(res, SPEC["end_to_end"], "%s trace 0" % name)
        code, res, _, _ = run(name, 1, 1, "--tiny")
        check(code == 0, "%s trace 1 exits 0" % name)
        expect_metrics(res, SPEC["per_layer"], "%s trace 1" % name)
        code, res, held_out_events, _ = run(name, 7, 0, "--tiny")
        check(code == 0, "%s held-out seed exits 0" % name)
        expect_metrics(res, SPEC["end_to_end"], "%s held-out seed" % name)
        check(abs(held_out_events - events) <= 0.01 * events,
              "%s event count %d vs %d within 1%%" % (name, held_out_events,
                                                     events))

    code, res, _, _ = run(names[0], 1, 0, "--tiny", "--perturb-reference")
    check(code != 0 and res is not None and not res["correct"]
          and res["failed"] == res["attempted"],
          "perturbed reference cube fails every repetition")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "metabench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for f in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, f)):
            shutil.copy(os.path.join(HERE, f), os.path.join(bare, "metabench"))
    try:
        code, res, _, _ = run(names[0], 1, 0, cwd=bare)
        check(code != 0 and res is None,
              "benchmark files alone exit non-zero without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
