#!/usr/bin/env python3
"""Run alternating parent/change pairs of the MetaScope benchmark.

Usage (from the repository root):

    python3 tools/bench_pairs.py --parent HEAD~1 --workload stream-512 \\
        --pairs 10 --seed-base 101 [--seconds 50] [--trace 1] [--tiny] \\
        [--record]

The parent side is REV checked out as a git worktree under
.bench_build/; the change side is the working tree. Each side is built
and run through its own metabench/run.py, so both use their own copy of
the benchmark and of src/. Pair i runs seed seed-base + i on both sides,
the parent first in even pairs and the change first in odd ones.

For each metric it prints each side's median [q1, q3], how many pairs
the change won (ties count for neither side) and a verdict against the
BENCHMARK.json bounds:

  REGRESSION  the change's median is worse than the parent's by more
              than the bound;
  UNRESOLVED  either side's spread (q3 - q1, relative to its median) is
              wider than the bound, and not every change run beats every
              parent run;
  OK          otherwise.

A change that fails a larger share of repetitions than the parent is a
REGRESSION as a whole. "gain" marks a metric the change improved by the
claim rule: it won at least nine tenths of the pairs and the medians
differ by more than the parent's q3 - q1. Per-layer metrics (--trace 1)
have no bound, so they get no verdict. With --record, one entry is
appended to BENCH_metabench.json at the repository root.

Exits non-zero when a run fails; never because of a verdict.
"""
import argparse
import datetime
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
LEDGER = os.path.join(ROOT, "BENCH_metabench.json")


def git(*args, cwd=ROOT):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def parent_checkout(rev):
    """Returns the worktree holding `rev`, adding it on first use."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "parent-" + sha[:12])
    if not os.path.isdir(path):
        git("worktree", "add", "--detach", path, sha)
    return sha, path


def src_digest(root):
    """sha256 over the tracked files under src/ and metabench/ as they are
    on disk, so an entry names the exact code it measured."""
    h = hashlib.sha256()
    for f in sorted(git("ls-files", "src", "metabench", cwd=root).split()):
        h.update(f.encode() + b"\0")
        with open(os.path.join(root, f), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def run_side(root, args, seed):
    """One metabench run: (result JSON, harness workers, exit code). Exits
    when the run printed no result."""
    cmd = [sys.executable, os.path.join(root, "metabench", "run.py"),
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(p.stderr)
        sys.exit("bench_pairs: no result from %s (exit %d)" % (root,
                                                                p.returncode))
    workers = None
    for line in lines:
        if line.startswith("metabench:"):
            fields = dict(f.split("=", 1) for f in line.split()[1:]
                          if "=" in f)
            workers = int(fields["workers"])
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
    return result, workers, p.returncode


def quartiles(xs):
    """(q1, median, q3), interpolating linearly between order statistics."""
    s = sorted(xs)

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def judge(spec, parent, change):
    """Summary of one metric over the pairs; values are in pair order."""
    lower = spec.get("better", "lower") == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for c, p in zip(change, parent) if better(c, p))
    out = {
        "unit": spec["unit"],
        "better": spec.get("better", "lower"),
        "parent": {"median": pm, "q1": p1, "q3": p3, "runs": parent},
        "change": {"median": cm, "q1": c1, "q3": c3, "runs": change},
        "wins": wins,
        "gain": wins >= 0.9 * len(parent) and better(cm, pm)
        and abs(cm - pm) > p3 - p1,
    }
    bound = spec.get("bound")
    if bound is None:
        out["verdict"] = None
        return out
    worse = (cm - pm) if lower else (pm - cm)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    dominates = all(better(c, p) for c in change for p in parent)
    if pm and worse / abs(pm) > bound:
        out["verdict"] = "REGRESSION"
    elif spread > bound and not dominates:
        out["verdict"] = "UNRESOLVED"
    else:
        out["verdict"] = "OK"
    out["bound"] = bound
    return out


def machine(workers):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "affinity_cpus": len(os.sched_getaffinity(0)),
            "workers": workers, "kernel": platform.release()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in SPEC["workloads"]])
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed-base", type=int, default=101)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args()

    parent_sha, parent_root = parent_checkout(args.parent)
    sides = {"parent": parent_root, "change": ROOT}
    specs = SPEC["per_layer" if args.trace else "end_to_end"]
    values = {side: {m["name"]: [] for m in specs} for side in sides}
    counts = {side: {"failed": 0, "attempted": 0} for side in sides}
    seeds = [args.seed_base + i for i in range(args.pairs)]
    workers, exit_code = None, 0
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result, w, code = run_side(sides[side], args, seed)
            workers = workers or w
            exit_code = exit_code or code
            counts[side]["failed"] += result["failed"]
            counts[side]["attempted"] += result["attempted"]
            for m in specs:
                values[side][m["name"]].append(
                    result["metrics"][m["name"]]["value"])
        print("pair %d/%d seed %d done (%s first)" % (i + 1, args.pairs, seed,
                                                      order[0]), flush=True)

    metrics = {m["name"]: judge(m, values["parent"][m["name"]],
                                values["change"][m["name"]]) for m in specs}
    print("\n%s, %d pairs of %g s, seeds %d-%d, parent %s\n" % (
        args.workload, args.pairs, args.seconds, seeds[0], seeds[-1],
        parent_sha[:12]))
    print("%-36s %-30s %-30s %5s  %s" % ("metric", "parent median [q1, q3]",
                                         "change median [q1, q3]", "wins",
                                         "verdict"))

    def fmt(s):
        return "%.4g [%.4g, %.4g]" % (s["median"], s["q1"], s["q3"])

    for name, m in metrics.items():
        print("%-36s %-30s %-30s %2d/%-2d  %s%s" % (
            name, fmt(m["parent"]), fmt(m["change"]), m["wins"], args.pairs,
            m["verdict"] or "-", " gain" if m["gain"] else ""))
    share = {}
    for side in sides:
        c = counts[side]
        share[side] = c["failed"] / max(c["attempted"], 1)
        print("%s: %d of %d repetitions failed" % (side, c["failed"],
                                                   c["attempted"]))
    if share["change"] > share["parent"]:
        print("REGRESSION: the change fails a larger share of repetitions")

    if args.record:
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
        entry = {
            "date": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(timespec="seconds"),
            "commit": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
            "src_digest": src_digest(ROOT),
            "parent": parent_sha,
            "parent_src_digest": src_digest(parent_root),
            "workload": args.workload,
            "seconds": args.seconds,
            "tiny": args.tiny,
            "trace": args.trace,
            "pairs": args.pairs,
            "seeds": seeds,
            "metrics": metrics,
            "failed": {s: counts[s]["failed"] for s in sides},
            "attempted": {s: counts[s]["attempted"] for s in sides},
            "machine": machine(workers),
        }
        ledger = {"schema_version": 1, "entries": []}
        if os.path.exists(LEDGER):
            with open(LEDGER) as f:
                ledger = json.load(f)
        ledger["entries"].append(entry)
        # Indented, but each list of plain values on one line.
        text = re.sub(r"\[\s+([^][{}]*?)\s+\]",
                      lambda m: "[" + " ".join(m.group(1).split()) + "]",
                      json.dumps(ledger, indent=1))
        with open(LEDGER, "w") as f:
            f.write(text + "\n")
        print("recorded in %s" % LEDGER)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
