#!/usr/bin/env python3
"""Diff BENCH_micro.json runs against a baseline and fail on kernel regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [CURRENT.json ...]
                     [--threshold=0.10] [--ratios-only]

Walks every kernel row of the baseline and compares each numeric column that
the current runs also report. With several CURRENT files (repeated emitter
runs on one host) each column is gated on its median across them, so one
noisy run cannot fail the gate alone. Direction is inferred from the column
name: throughput (*_per_s) and speedup-style columns regress when they DROP,
time columns (*_ms) regress when they RISE. A column has regressed when it
is worse than baseline by more than --threshold (default 10%).

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
import statistics
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
    if len(paths) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline = load(paths[0])
    currents = [load(p) for p in paths[1:]]

    for path, current in zip(paths[1:], currents):
        if not current.get("results_bit_identical", True):
            print(f"FAIL: {path} reports results_bit_identical=false — the "
                  "engines diverged; fix correctness before reading timings.")
            return 1

    def median_of(values):
        numbers = [v for v in values if isinstance(v, (int, float))]
        return statistics.median(numbers) if numbers else None

    regressions = []
    compared = 0
    for kernel, base_row in baseline.get("kernels", {}).items():
        cur_rows = [c.get("kernels", {}).get(kernel) for c in currents]
        if any(row is None for row in cur_rows):
            regressions.append(f"{kernel}: missing from a current run")
            continue
        for column, base_val in base_row.items():
            if not isinstance(base_val, (int, float)) or base_val <= 0:
                continue
            if ratios_only and (not is_ratio(column) or
                                column in HW_SENSITIVE):
                continue
            cur_val = median_of(row.get(column) for row in cur_rows)
            if cur_val is None:
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
    cur_singletons = median_of(
        c.get("clusters", {}).get("two_level", {}).get("singleton_sites")
        for c in currents)
    if "singleton_sites" in base_two and cur_singletons is not None:
        compared += 1
        allowed = base_two["singleton_sites"] * (1.0 + threshold)
        if cur_singletons > allowed:
            regressions.append(
                f"clusters.two_level.singleton_sites: "
                f"{base_two['singleton_sites']} -> {cur_singletons:g}")

    if compared == 0:
        print("bench_compare: no comparable columns (schema mismatch?)",
              file=sys.stderr)
        return 2
    if regressions:
        runs = f", median of {len(currents)} runs" if len(currents) > 1 else ""
        print(f"FAIL: {len(regressions)} regression(s) vs {paths[0]}{runs}:")
        for r in regressions:
            print(f"  - {r}")
        return 1
    runs = f" (median of {len(currents)} runs)" if len(currents) > 1 else ""
    print(f"OK: {compared} columns within {threshold:.0%} of {paths[0]}{runs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
