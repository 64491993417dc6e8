#!/usr/bin/env python3
"""A/B comparison of two built benchmark binaries (standard library only).

  python3 benchmark/compare.py PARENT_BINARY CHANGE_BINARY
          [--pairs 10] [--workload NAME ...] [--seconds S] [--first-seed N]

Build each side from its own checkout (cmake -S benchmark -B build-bench)
with identical benchmark sources. Pair i runs both binaries on seed
first_seed + i, alternating which side runs first. For every (workload,
end-to-end metric) the script prints each side's median and quartiles,
the share of pairs the change won (ties count for neither), and a
verdict against the bounds in BENCHMARK.json:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range
  regressed   the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's interquartile range exceeds the bound and
              not every change run beats every parent run
  unchanged   otherwise

Exits 1 when any verdict is "regressed" or any run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(binary, workload, seed, seconds):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    try:
        result = json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if p.returncode != 0 or not result or not result.get("correct"):
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, metric):
    higher = metric["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    wins = sum(better(c, p) for p, c in zip(parent, change)) / len(parent)
    spread = p3 - p1
    bound = metric["bound"] * abs(pmed)
    worse_by = (pmed - cmed) if higher else (cmed - pmed)
    if worse_by > bound:
        return wins, "regressed"
    if wins >= 0.9 and better(cmed, pmed) and abs(cmed - pmed) > spread:
        return wins, "improved"
    all_better = (min(change) > max(parent)) if higher else (
        max(change) < min(parent))
    if spread > bound and not all_better:
        return wins, "unresolved"
    return wins, "unchanged"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}

    # samples[workload][side] = list of {metric: value}, one per pair
    samples = {w: {"parent": [], "change": []} for w in workloads}
    failures = 0
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            got = {side: run(sides[side], w, seed, seconds) for side in order}
            if None in got.values():
                print("pair %d %s: a run failed (%s)" % (
                    i, w, ", ".join(s for s, r in got.items() if r is None)))
                failures += 1
                continue
            for side in order:
                samples[w][side].append(got[side])
            print("pair %d/%d %s done" % (i + 1, args.pairs, w),
                  file=sys.stderr)

    regressed = 0
    for w in workloads:
        runs = samples[w]
        print("\n%s (%d pairs)" % (w, len(runs["parent"])))
        if not runs["parent"]:
            continue
        print("  %-16s %-34s %-34s %5s  %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for m in spec["end_to_end"]:
            p = [r[m["name"]] for r in runs["parent"]]
            c = [r[m["name"]] for r in runs["change"]]
            pq, cq = quartiles(p), quartiles(c)
            wins, v = verdict(p, c, m)
            regressed += v == "regressed"
            print("  %-16s %-34s %-34s %5.2f  %s" % (
                m["name"],
                "%.6g [%.6g, %.6g] %s" % (pq[1], pq[0], pq[2], m["unit"]),
                "%.6g [%.6g, %.6g] %s" % (cq[1], cq[0], cq[2], m["unit"]),
                wins, v))
    return 1 if regressed or failures else 0


if __name__ == "__main__":
    sys.exit(main())
