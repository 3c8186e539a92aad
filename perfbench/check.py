#!/usr/bin/env python3
"""The benchmark's own tests: determinism and seed-to-seed agreement.

    python3 perfbench/check.py

Run from the repository root. For each workload it checks that

  * two runs of one seed give identical modeled metrics and an identical
    sim event count;
  * the traced run gives the same modeled metrics as the untraced one
    (nk_perfbench compares the two reps of a traced run itself and fails
    the run otherwise);
  * a run whose wall budget keeps arrivals going well past the drain limit
    gives the same modeled metrics as one that stops as early as it can;
  * every gated modeled end-to-end metric agrees within a tenth of its
    median across the seeds.

Runs two at a time. Exits nonzero if any check fails.
"""

import statistics
import sys
from concurrent.futures import ThreadPoolExecutor

import run as bench

SEEDS = (1000, 1001, 1002, 1003)
# Longer than the modeled part of any workload takes on a 4-core 2 GHz VM
# (dc_bulk: ~33 s), so every workload runs on past its drain limit.
LONG_SECONDS = 60
GATED = ("goodput_mbps", "latency_p50_us", "latency_tail_us",
         "modeled_cpu_ns_per_kb")


def modeled(result):
    """Every end-to-end figure that is not host time (sim events included)."""
    return {k: v["value"] for k, v in result["end_to_end"].items()
            if v["kind"] != "host"}


def differing(a, b):
    return ", ".join(k for k in a if a[k] != b.get(k))


def check_workload(workload, pool):
    failures = []
    first = SEEDS[0]
    # (seed, seconds, trace)
    jobs = [(first, 0, 0), (first, 0, 0), (first, 0, 1),
            (first, LONG_SECONDS, 0)] + [(s, 0, 0) for s in SEEDS[1:]]
    results = list(pool.map(lambda job: bench.run_binary(workload, *job),
                            jobs))
    for (seed, seconds, trace), (code, res) in zip(jobs, results):
        if res is None or code != 0 or not res["correct"]:
            problems = res["problems"] if res else ["no result"]
            failures.append(f"seed {seed} seconds {seconds} trace {trace} "
                            f"failed: {problems}")
    if failures:
        return failures

    a, b, traced, extended = (modeled(r) for _, r in results[:4])
    if a != b:
        failures.append("two runs of one seed differ: " + differing(a, b))
    if a != traced:
        failures.append("traced run differs from untraced: " +
                        differing(a, traced))
    if a != extended:
        failures.append(f"--seconds {LONG_SECONDS} differs from --seconds 0: "
                        + differing(a, extended))
    short_sim_s = results[0][1]["end_to_end"]["host_sim_s"]["value"]
    long_sim_s = results[3][1]["end_to_end"]["host_sim_s"]["value"]
    if long_sim_s <= short_sim_s:
        failures.append(f"--seconds {LONG_SECONDS} ran no longer than "
                        "--seconds 0; raise LONG_SECONDS")

    per_seed = [a] + [modeled(r) for _, r in results[4:]]
    for name in GATED:
        values = [m[name] for m in per_seed]
        mid = statistics.median(values)
        worst = max(abs(v - mid) for v in values) / mid
        print(f"  {workload:13s} {name:24s} median {mid:12.6g} "
              f"max deviation {worst:6.1%} over {len(values)} seeds")
        if worst > 0.1:
            failures.append(f"{name} varies by {worst:.1%} across seeds")
    return failures


def main():
    if not bench.build():
        print("build failed", file=sys.stderr)
        return 2
    failures = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for w in bench.WORKLOADS:
            failures += [f"{w}: {f}" for f in check_workload(w, pool)]
    for f in failures:
        print(f"FAIL {f}")
    print("all checks passed" if not failures else f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
