#!/usr/bin/env python3
"""Smoke test of the benchmark: a few ops per workload.

    python3 perfbench/smoke_test.py

Runs every workload untraced for one second (after the three set-ups every
run makes), then one traced run, and checks that each reports correct, with
no failed op, every metric BENCHMARK.json names for its mode, with its
unit, and no other.
serve_hot runs too although BENCHMARK.json leaves it out (see README.md).
Last, it copies BENCHMARK.json and perfbench/ alone into a scratch
directory under .bench_build and checks that the benchmark fails there
without printing a result. Exits non-zero on the first problem.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check(workload, trace, expected):
    proc = run(ROOT, workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"failed_frac {result['failed']}/"
                        f"{result['attempted']}, correct={result['correct']}")
    if result["attempted"] < 1:
        problems.append("no op attempted")
    got = result["metrics"]
    for m in expected:
        if m["name"] not in got:
            problems.append(f"missing {m['name']}")
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append(f"{m['name']} in {got[m['name']]['unit']}, "
                            f"not {m['unit']}")
    extra = set(got) - {m["name"] for m in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    if problems:
        sys.exit(f"{workload} trace={trace}: " + "; ".join(problems) +
                 f"\n{proc.stderr[-3000:]}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} ops")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "cold_sweep", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        sys.exit("bare directory: the benchmark did not fail cleanly")
    print(f"ok  bare directory: exit {proc.returncode}, no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if "serve_hot" not in workloads:
        workloads.append("serve_hot")
    for workload in workloads:
        check(workload, 0, bench["end_to_end"])
    check(workloads[0], 1, bench["per_layer"])
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
