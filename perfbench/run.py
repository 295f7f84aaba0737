#!/usr/bin/env python3
"""End-to-end benchmark of the OmniMatch training and serving stack.

Builds perfbench/ (a CMake project that compiles the repository's libraries
from the parent directory) into .bench_build/perfbench, then runs one
workload in its own process:

  python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run plus obs.trace_overhead (the traced run's headline throughput
against an untraced run of the same seed, made first). The last line of
standard output is one JSON object {"correct", "attempted", "failed",
"metrics"}; the exit code is non-zero when a correctness check failed.

  --workload all   runs every workload, one process each, and prints every
                   metric by name with its unit.
  --smoke          runs every workload briefly in both modes and asserts that
                   each metric named in BENCHMARK.json is emitted with its
                   unit.

See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("train", "serve_warm", "serve_cold")
# The throughput obs.trace_overhead compares, per workload.
HEADLINE = {"train": "train_examples_per_s",
            "serve_warm": "capacity_qps",
            "serve_cold": "capacity_qps"}
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; False on failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", BUILD_JOBS])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_binary(workload, seed, seconds, trace):
    """Runs one workload process. Returns (result dict or None, info lines)."""
    tag = "%s-seed%d-trace%d" % (workload, seed, trace)
    work_dir = os.path.join(BUILD, "work", tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace,
           "--work_dir=" + work_dir]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace_out=" + os.path.join(traces, tag + ".json"))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % tag)
        return None, []
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (tag, done.returncode))
        for line in lines:
            log(line)
        return None, []
    return json.loads(lines[-1]), lines[:-1]


def run_workload(workload, seed, seconds, trace):
    """One benchmark run; returns the result dict or None on failure."""
    if not trace:
        result, info = run_binary(workload, seed, seconds, 0)
        for line in info:
            print(line)
        return result
    untraced, _ = run_binary(workload, seed, seconds, 0)
    traced, info = run_binary(workload, seed, seconds, 1)
    if untraced is None or traced is None:
        return None
    for line in info:
        print(line)
    headline = HEADLINE[workload]
    traced_e2e = None
    for line in info:
        if line.startswith("end_to_end: "):
            traced_e2e = json.loads(line[len("end_to_end: "):])
    if traced_e2e is None:
        log("perfbench: traced run printed no end_to_end line")
        return None
    base = untraced["metrics"][headline]["value"]
    traced["metrics"]["obs.trace_overhead"] = {
        "value": 1.0 - traced_e2e[headline]["value"] / base,
        "unit": "share"}
    traced["attempted"] += untraced["attempted"]
    traced["failed"] += untraced["failed"]
    return traced


def smoke(seconds):
    """Asserts every metric of BENCHMARK.json is emitted with its unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            result = run_workload(workload, 1, seconds, trace)
            if result is None or not result["correct"]:
                log("smoke: %s trace %d failed" % (workload, trace))
                ok = False
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got)
                               if want[n] != got[n])
                log("smoke: %s trace %d: missing %s, unexpected %s, "
                    "wrong unit %s" % (workload, trace, missing, extra, wrong))
                ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not build():
        return 1
    if args.smoke:
        return 0 if smoke(min(args.seconds, 3.0)) else 1
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            print("%-11s %-34s %16.6g %s" % (workload, name, m["value"],
                                             m["unit"]))
            combined["metrics"][workload + "/" + name] = m
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
