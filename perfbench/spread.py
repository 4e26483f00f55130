#!/usr/bin/env python3
"""Repeatability check: runs workloads over several seeds and reports, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median,
against the bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workloads serve_hot --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --held-out 9001 \
        --out perfbench/results.json

Quartiles are statistics.quantiles(values, n=4). A spread above a third of
its bound is flagged "wide"; above the bound, "FAIL". Every run must report
correct, with no failed op.
--held-out SEED then runs each workload once more, untraced and traced, on
a seed not used while the benchmark was written, and checks that it
reports the same metric names with no failed op. --out writes everything,
with the host block the runs printed, as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    host = next((json.loads(line[len("host "):]) for line in lines
                 if line.startswith("host ")), None)
    return json.loads(lines[-1]), wall, host


def held_out(bench, workloads, seed, seconds):
    """One untraced and one traced run per workload on `seed`."""
    out, ok = {}, True
    for workload in workloads:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            result, _, _ = run_once(workload, seed, seconds, trace)
            names = sorted(result["metrics"])
            same = names == sorted(m["name"] for m in expected)
            good = same and result["correct"] and result["failed"] == 0
            ok = ok and good
            out[f"{workload}/trace{trace}"] = {
                "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "all_metric_names": same}
            print(f"held-out seed {seed} {workload} trace={trace}: "
                  f"{'ok' if good else 'FAIL'} ({result['attempted']} ops, "
                  f"{result['failed']} failed, {len(names)} metrics)")
    return out, ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=0,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--held-out", type=int, default=None)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = parse_seeds(args.seeds)

    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        values, walls = {}, []
        for seed in seeds:
            result, wall, host = run_once(workload, seed, seconds, args.trace)
            report.setdefault("host", host)
            walls.append(wall)
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect ({result['failed']}"
                      f" of {result['attempted']} ops failed)")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s wall",
                  file=sys.stderr)
        rows = {}
        print(f"{workload}: {len(seeds)} runs, {statistics.mean(walls):.1f} s"
              f" mean wall")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = ("FAIL" if spread > bound
                           else "wide" if spread > bound / 3 else "ok")
                ok = ok and verdict != "FAIL"
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": vals}
            print(f"  {name:24s} median {med:14.4f}  spread {spread:7.3f}"
                  f"  bound {bound}  {verdict}  "
                  f"[{' '.join(f'{v:.4g}' for v in vals)}]")
        report["workloads"][workload] = {"runs": rows,
                                         "mean_wall_s": statistics.mean(walls)}
    if args.held_out is not None:
        report["held_out"], good = held_out(bench, workloads, args.held_out,
                                            seconds)
        report["held_out_seed"] = args.held_out
        ok = ok and good
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
