#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Run from the repository root. Runs every workload of BENCHMARK.json at
its smallest size (--tiny), untraced and traced, and checks that the
last output line is the result object with exactly the expected keys,
that it reports success, and that it carries every named metric with
its unit and a finite number. Then checks that the benchmark refuses to
run, without printing a result, when only BENCHMARK.json and the
benchmark's own files are present. Exits non-zero on the first problem.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print("smoke_test: FAIL: " + msg)
    sys.exit(1)


def check_result(spec, workload, trace, stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("%s trace=%d printed nothing" % (workload, trace))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s trace=%d: keys %s" % (workload, trace, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0:
        fail("%s trace=%d: not correct: %s" % (workload, trace, lines[-2]))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("%s trace=%d: attempted %r" % (workload, trace,
                                            result["attempted"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        fail("%s trace=%d: metric names differ: missing %s, extra %s" % (
            workload, trace,
            sorted({m["name"] for m in wanted} - set(metrics)),
            sorted(set(metrics) - {m["name"] for m in wanted})))
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail("%s: %s unit %r, want %r" % (workload, m["name"],
                                              got.get("unit"), m["unit"]))
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s value %r" % (workload, m["name"], value))
    info = json.loads(lines[-2])["info"]
    for key in ("nproc", "build_type", "commit", "digest"):
        if key not in info:
            fail("%s: run record lacks %s" % (workload, key))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", w["name"], "--seed", "7",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=900)
            if p.returncode != 0:
                fail("%s trace=%d exited %d:\n%s" % (
                    w["name"], trace, p.returncode, p.stderr[-3000:]))
            check_result(spec, w["name"], trace, p.stdout)
            print("smoke_test: ok %s trace=%d" % (w["name"], trace))

    # Without the engine sources the benchmark must fail, quietly.
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    p = subprocess.run(spec["command"] + ["--workload",
                                          spec["workloads"][0]["name"],
                                          "--seed", "1", "--seconds", "1",
                                          "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180,
                       env=env)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail("a checkout without sources exited %d with output %r" % (
            p.returncode, p.stdout[-200:]))
    print("smoke_test: ok refuses to run without the engine sources")
    print("smoke_test: PASS")


if __name__ == "__main__":
    main()
