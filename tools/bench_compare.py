#!/usr/bin/env python3
"""Diff two BENCH_micro.json files and fail on kernel regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold=0.10]
                     [--ratios-only]

Walks every kernel row of both files and compares each numeric column that
appears in both. Direction is inferred from the column name: throughput
(*_per_s) and speedup-style columns regress when they DROP, time columns
(*_ms) regress when they RISE. A column has regressed when it is worse than
baseline by more than --threshold (default 10%).

--ratios-only restricts the comparison to machine-relative columns (speedup,
batched_vs_compiled, ...). Absolute throughput depends on the host, so
cross-machine gates — CI comparing against a baseline committed from a
developer box — must pass this flag; like-for-like A/B runs on one machine
should omit it. The batched/SIMD ratio columns (simd_speedup,
batched_speedup, batched_vs_compiled) are additionally skipped under
--ratios-only: their numerators run the -march=native lane-plane kernels,
so cross-machine they report the host's vector ISA (the baseline box may
have AVX-512 where a runner has AVX2), not code regressions. They are fully
gated by same-machine runs without the flag.

Exit status: 0 = no regression, 1 = regression(s) found, 2 = usage/schema
error. Schema v2 baselines still compare (shared columns only); the cluster
stats and bit-identity flag are checked when present in both files.
"""

import json
import sys


RATIO_HINTS = ("speedup", "_vs_")

# Ratios whose numerator runs the SIMD lane-plane kernels (built
# -march=native, so their speed is a property of the HOST's vector ISA) or
# that directly compare the two kernel paths; meaningless cross-machine.
# sharded_vs_batched is process fan-out cost (worker start + loopback
# bandwidth + core count) — all host, gated by same-machine runs only.
# tcp_vs_pipe (schema v6) compares pre-started workers against a fleet
# started per sweep — worker start-up cost, a pure host property — so it is
# same-machine too.
HW_SENSITIVE = {"simd_speedup", "batched_speedup", "batched_vs_compiled",
                "sharded_vs_batched", "tcp_vs_pipe"}
# incremental_vs_full (schema v9) is deliberately NOT here: both sides run
# the same batched engine on the same circuit, so the ratio is workload
# shape (dirty-cone size vs total cone mass), comparable across machines.


def is_ratio(column):
    return any(h in column for h in RATIO_HINTS)


def lower_is_better(column):
    return column.endswith("_ms")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    threshold = 0.10
    ratios_only = False
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            try:
                threshold = float(arg.split("=", 1)[1])
            except ValueError:
                print(f"bench_compare: bad threshold in {arg}",
                      file=sys.stderr)
                return 2
        elif arg == "--ratios-only":
            ratios_only = True
        elif arg.startswith("--"):
            print(f"bench_compare: unknown flag {arg}", file=sys.stderr)
            return 2
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline, current = load(paths[0]), load(paths[1])

    if not current.get("results_bit_identical", True):
        print("FAIL: current run reports results_bit_identical=false — the "
              "engines diverged; fix correctness before reading timings.")
        return 1

    regressions = []
    compared = 0
    for kernel, base_row in baseline.get("kernels", {}).items():
        cur_row = current.get("kernels", {}).get(kernel)
        if cur_row is None:
            regressions.append(f"{kernel}: missing from current run")
            continue
        for column, base_val in base_row.items():
            if not isinstance(base_val, (int, float)) or base_val <= 0:
                continue
            if ratios_only and (not is_ratio(column) or
                                column in HW_SENSITIVE):
                continue
            cur_val = cur_row.get(column)
            if not isinstance(cur_val, (int, float)):
                continue
            compared += 1
            if lower_is_better(column):
                worse = cur_val > base_val * (1.0 + threshold)
                change = cur_val / base_val - 1.0
            else:
                worse = cur_val < base_val * (1.0 - threshold)
                change = 1.0 - cur_val / base_val
            if worse:
                regressions.append(
                    f"{kernel}.{column}: {base_val:g} -> {cur_val:g} "
                    f"({change:+.1%} worse, threshold {threshold:.0%})")

    # Cluster quality must not silently decay either: more singleton sites
    # than baseline (by the same threshold) means the planner lost packing.
    base_two = baseline.get("clusters", {}).get("two_level", {})
    cur_two = current.get("clusters", {}).get("two_level", {})
    if "singleton_sites" in base_two and "singleton_sites" in cur_two:
        compared += 1
        allowed = base_two["singleton_sites"] * (1.0 + threshold)
        if cur_two["singleton_sites"] > allowed:
            regressions.append(
                f"clusters.two_level.singleton_sites: "
                f"{base_two['singleton_sites']} -> "
                f"{cur_two['singleton_sites']}")

    if compared == 0:
        print("bench_compare: no comparable columns (schema mismatch?)",
              file=sys.stderr)
        return 2
    if regressions:
        print(f"FAIL: {len(regressions)} regression(s) vs {paths[0]}:")
        for r in regressions:
            print(f"  - {r}")
        return 1
    print(f"OK: {compared} columns within {threshold:.0%} of {paths[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
