#!/usr/bin/env python3
"""Repository benchmark: build the program from source, run one workload.

    python3 perfbench/run.py --workload dc_bulk --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ (the program's libraries
from src/ plus the nk_perfbench program) into .bench_build/perfbench, runs
the workload, prints a readable report and, as the last line of standard
output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. The full result (every metric with its kind,
sample counts, failed checks) is kept in .bench_build/perfbench/, next to
the span file of a traced run. Exits nonzero when the build fails, a check
fails or an output is wrong. perfbench/README.md describes the workloads
and metrics.
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
BINARY = os.path.join(BUILD, "nk_perfbench")
WORKLOADS = ("dc_bulk", "dc_websearch", "dc_rpc")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: program sources (src/) not found next to perfbench/")
        return False
    if shutil.which("cmake") is None:
        log("perfbench: cmake not found")
        return False
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0 and os.path.isfile(BINARY)


def run_binary(workload, seed, seconds, trace):
    """Runs nk_perfbench once; returns (exit code, parsed result or None)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans",
                os.path.join(BUILD, f"spans-{workload}-{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: nk_perfbench printed no result")
        return done.returncode or 1, None


def report(result, names):
    """Prints every metric of the run by name, unit and kind."""
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}")
    n = result["latency_samples"]
    tail = result["end_to_end"]["latency_tail_pct"]["value"]
    print(f"ops attempted {result['attempted']}  failed {result['failed']}")
    print(f"latency samples {n} ({result['latency_of']}); the tail is "
          f"p{tail:g}, with {int(n * (100 - tail) / 100)} samples beyond it")
    for section in ("end_to_end", "per_layer"):
        metrics = result[section]
        if not metrics:
            continue
        print(f"-- {section.replace('_', '-')}")
        for name in sorted(metrics):
            m = metrics[name]
            mark = "*" if name in names else " "
            print(f" {mark} {name:40s} {m['value']:>16.6g} {m['unit']:8s} "
                  f"{m['kind']}")
    print("(* = gated in BENCHMARK.json)")
    for p in result["problems"]:
        print(f"FAILED CHECK: {p}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[section]]

    if not build():
        log("perfbench: build failed")
        return 2
    code, result = run_binary(args.workload, args.seed, args.seconds,
                              args.trace)
    if result is None:
        return code or 1
    with open(os.path.join(BUILD, f"result-{args.workload}-{args.seed}-"
                                  f"trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    report(result, names)
    measured = result[section]
    missing = [n for n in names if n not in measured]
    if missing:
        log(f"perfbench: metrics not measured: {', '.join(missing)}")
        return 1
    correct = bool(result["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": measured[n]["value"],
                        "unit": measured[n]["unit"]} for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
