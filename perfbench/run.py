#!/usr/bin/env python3
"""Run one perfbench workload and print its result as one JSON line.

    python3 perfbench/run.py --workload tenant-mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The script configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the library
from ../src) into $CARGO_TARGET_DIR or .bench_build, runs the benchmark
executable for the workload, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end_to_end metric of BENCHMARK.json when --trace is 0 and
every per_layer metric when --trace is 1. A per-layer metric the
workload does not exercise is printed as 0 and named on a "#" line above.
Full results, span files and trace reports go to <build>/perfbench-results.
Exits non-zero, without a result line, when the build or the run fails;
exits 1 after printing the result when an answer check failed.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the executable; returns its path or None."""
    pkg_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(pkg_dir, exist_ok=True)
    with open(os.path.join(build_dir, "perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(pkg_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", pkg_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S).returncode != 0:
                shutil.rmtree(pkg_dir, ignore_errors=True)
                return None
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", pkg_dir, "--target", "xbarsec_perfbench", "--parallel", jobs]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            return None
    exe = os.path.join(pkg_dir, "xbarsec_perfbench")
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; expected one of {names}")
        return 2

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        log("perfbench: build failed")
        return 1

    out_dir = os.path.join(build_dir, "perfbench-results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: {args.workload} printed nothing (exit {proc.returncode})")
        return 1
    try:
        raw = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("perfbench: the last output line is not JSON: " + lines[-1][:200])
        return 1
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, absent = {}, []
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                log(f"perfbench: {args.workload} did not report {m['name']}")
                return 1
            absent.append(m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"] or got["value"] is None:
            log(f"perfbench: {m['name']} reported as {got}, expected unit {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if absent:
        print("# not on this workload's path (printed as 0): " + ", ".join(absent))

    result = {"correct": bool(raw["correct"]) and proc.returncode == 0,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
