#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 e2ebench/selftest.py [--workloads soc_route,soc_place,serve_mix]

Run from the repository root; takes about 5 minutes for all three workloads.

1. Work determinism: two runs of one seed print identical quality
   (teil_geomean, chip_area_geomean, overflow_sum) and identical work
   counts (place.attempts, route.nodes_popped, route.searches,
   cluster.clusters). A wall-time difference between two such runs is
   noise by construction; a count difference is a program change.
2. Workload split, from the traced run: on soc_route the refinement stage
   (routing and channel definition included) takes >= 80% of job time and
   the router runs; on soc_place clustering runs; on serve_mix the serve
   layer reports. That soc_place never routes and the soc workloads never
   serve is not measured here: it holds by construction, since those
   workloads call no router or service function (their route, channel and
   serve metrics are 0 because nothing records them).
3. A directory holding only BENCHMARK.json and e2ebench/ makes the
   benchmark exit non-zero without a result line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = "2"  # one timed job on the batch workloads
COUNTS = ("place.attempts", "route.nodes_popped", "route.searches",
          "cluster.clusters", "overflow_sum")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, cwd=ROOT):
    r = subprocess.run(
        [sys.executable, os.path.join(cwd, "e2ebench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", SECONDS,
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = r.stdout.strip().splitlines()
    return r.returncode, lines


def result_of(workload, trace):
    code, lines = run(workload, trace)
    check(code == 0 and len(lines) >= 2,
          "%s trace=%d exits 0 with a result" % (workload, trace))
    res = json.loads(lines[-1])
    meta = json.loads(lines[-2][len("meta "):])
    check(res["correct"] and res["failed"] == 0,
          "%s trace=%d: every output check passes" % (workload, trace))
    return res, meta


def values(res):
    return {k: v["value"] for k, v in res["metrics"].items()}


def test_workload(w):
    a, ma = result_of(w, 0)
    b, mb = result_of(w, 0)
    for k in ("teil_geomean", "chip_area_geomean"):
        check(values(a)[k] == values(b)[k], "%s: %s repeats exactly" % (w, k))
    check(ma["overflow_sum"] == mb["overflow_sum"],
          "%s: overflow_sum repeats exactly" % w)

    t1, _ = result_of(w, 1)
    t2, _ = result_of(w, 1)
    v1, v2 = values(t1), values(t2)
    for k in COUNTS:
        check(v1[k] == v2[k], "%s: traced %s repeats exactly (%s)" % (w, k, v1[k]))

    if w == "soc_route":
        check(v1["refine.stage2_share"] >= 0.8,
              "soc_route: refine share of job time %.3f >= 0.8"
              % v1["refine.stage2_share"])
        check(v1["route.searches"] > 0, "soc_route: the router runs")
    if w == "soc_place":
        check(v1["cluster.clusters"] > 0, "soc_place: clustering runs")
    if w == "serve_mix":
        serve = [k for k in v1 if k.startswith("serve.") and k != "serve.shed_ratio"]
        check(all(v1[k] > 0 for k in serve), "serve_mix: serve layer reports")


def test_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run("soc_route", 0, cwd=bare)
    check(code != 0 and not (lines and lines[-1].startswith("{")),
          "bare directory: non-zero exit (%d) and no result" % code)
    shutil.rmtree(bare, ignore_errors=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="soc_route,soc_place,serve_mix")
    args = ap.parse_args()
    test_bare_directory()
    for w in args.workloads.split(","):
        test_workload(w)
    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
