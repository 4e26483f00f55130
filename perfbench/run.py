#!/usr/bin/env python3
"""Builds perfbench from this checkout, then runs one workload.

    python3 perfbench/run.py --workload cold_sweep --seed 1 --seconds 20 --trace 0

The first call configures and builds sereep and the perfbench binary
(Release) into .bench_build/perfbench; later calls only let the build
check itself. Every argument is passed to that binary, whose last stdout
line is the JSON result. Build output goes to stderr. A failed build exits
non-zero without printing a result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    # A child process, not execv: resource usage of reaped children
    # survives exec, and sharded_sweep's peak_rss_mb reads the largest
    # reaped child, which must be a shard worker, not the build.
    sys.stdout.flush()
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary, *sys.argv[1:], "--work", BUILD]).returncode


if __name__ == "__main__":
    sys.exit(main())
