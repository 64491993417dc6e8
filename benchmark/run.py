#!/usr/bin/env python3
"""Build and run the repository benchmark (Python 3 standard library only).

  python3 benchmark/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--json PATH] [--spans DIR]
      Build build-bench/ from source if needed, run one workload and pass
      its output through. The last line of standard output is the
      result: {"correct", "attempted", "failed", "metrics"}.

  python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]
      Run every workload of BENCHMARK.json, each in a fresh process, and
      print their metrics as a table.

  python3 benchmark/run.py --smoke [--binary PATH]
      Run every workload at 1/100 size, untraced and traced, and check
      each result against BENCHMARK.json. Registered as a ctest.

Paths are resolved from this file's location, so it runs from any
directory. Build output goes to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-bench")


def die(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build the benchmark; return the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("the library sources (CMakeLists.txt and src/) are not next "
            "to " + BENCH_DIR)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "sibyl_bench",
                  "-j", str(min(os.cpu_count() or 1, 4))])
    # Keep the compiler's temporary files inside the build tree.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "sibyl_bench")


def bench_cmd(binary, workload, seed, seconds, trace, extra=()):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]


def run_captured(cmd, quiet=False):
    """Run one benchmark process; return (exit code, parsed result,
    standard error when @p quiet, else None)."""
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       stderr=subprocess.PIPE if quiet else None)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return p.returncode, result, p.stderr


def check_result(result, expected):
    """Problems with one result line; @p expected is the list of metric
    entries (name, unit) it must carry exactly."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result is not {correct, attempted, failed, metrics}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted is not a positive integer")
    if result["failed"] != 0:
        problems.append("failed = %r" % result["failed"])
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        problems.append("metric names differ: missing %s, extra %s" % (
            sorted(set(want) - set(metrics)), sorted(set(metrics) - set(want))))
    for name, unit in want.items():
        m = metrics.get(name)
        if m is not None and (m.get("unit") != unit or
                              not isinstance(m.get("value"), (int, float))):
            problems.append("%s: bad value or unit %r" % (name, m))
    return problems


def smoke(spec, binary):
    failures = 0
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, result, log = run_captured(
                bench_cmd(binary, w["name"], 1, 0, trace, ["--smoke"]),
                quiet=True)
            problems = check_result(result, spec[key])
            if rc != 0:
                problems.insert(0, "exit code %d" % rc)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print("smoke %-16s trace %d: %s" % (w["name"], trace, status))
            if problems:
                print(log, file=sys.stderr)
            failures += bool(problems)
    return 1 if failures else 0


def run_all(spec, binary, seed, seconds, trace):
    key = "per_layer" if trace else "end_to_end"
    status = 0
    results = {}
    for w in spec["workloads"]:
        rc, result, _ = run_captured(
            bench_cmd(binary, w["name"], seed, seconds, trace))
        results[w["name"]] = result
        if rc != 0 or not result:
            print("%-16s exit code %d" % (w["name"], rc))
            status = 1
            continue
        print("%-16s correct=%s attempted=%d failed=%d" % (
            w["name"], result["correct"], result["attempted"],
            result["failed"]))
        for m in spec[key]:
            v = result["metrics"].get(m["name"], {})
            print("    %-28s %16.6g %s" % (m["name"], v.get("value", 0.0),
                                          v.get("unit", m["unit"])))
    print(json.dumps({"seed": seed, "trace": trace, "results": results}))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json")
    ap.add_argument("--spans")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--binary", help="use this built sibyl_bench")
    args = ap.parse_args()

    spec = load_spec()
    binary = args.binary or build()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    if args.smoke:
        return smoke(spec, binary)
    if args.workload is None:
        return run_all(spec, binary, args.seed, seconds, args.trace)
    extra = []
    if args.json:
        extra += ["--json", args.json]
    if args.spans:
        extra += ["--spans", args.spans]
    return subprocess.run(bench_cmd(binary, args.workload, args.seed,
                                    seconds, args.trace, extra)).returncode


if __name__ == "__main__":
    sys.exit(main())
