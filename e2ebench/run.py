#!/usr/bin/env python3
"""Builds and runs the TimberWolfMC end-to-end benchmark.

    python3 e2ebench/run.py --workload soc_route --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds a
Release copy of the library and the benchmark program tw_e2e
(e2ebench/CMakeLists.txt) under .bench_build/e2ebench; later calls rebuild
only what changed. The build log goes to stderr; stdout is tw_e2e's
output, whose last line is the result object. See e2ebench/README.md for
the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "e2ebench")
WORKLOADS = ("soc_route", "soc_place", "serve_mix")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to e2ebench/")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "tw_e2e", "-j", jobs]]
    if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, "tw_e2e")


def commit_id():
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           cwd=ROOT, capture_output=True, text=True, timeout=10)
        lines = r.stdout.split()
        # Only this tree's own repository names the commit.
        if r.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    os.chdir(ROOT)

    exe = build()
    work = os.path.join(".bench_build", "work-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--commit", commit_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("tw_e2e exceeded %d s" % RUN_TIMEOUT_S, 1)
    finally:
        # Keep trace files, drop the daemon state directories.
        for name in ("serve", "serve-setup", "serve-bare", "serve-traced"):
            shutil.rmtree(os.path.join(work, name), ignore_errors=True)
        if os.path.isdir(work) and not os.listdir(work):
            os.rmdir(work)
    sys.stdout.write(r.stdout.decode())
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
