#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload paper_suite --seed 1 \
        --seconds 42 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the engine from src/, the daemon from tools/) into
.bench_build/; later runs only check that the build is current. The
last line of standard output is the JSON result; build output goes to
standard error. Exits non-zero, without a result, when the build or the
run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("paper_suite", "small_kernels")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out,
             "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def source_commit():
    """The git commit when there is one, else a digest of the sources."""
    try:
        # Never look for a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              env=env)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1:" + digest.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs (smoke test)")
    args = ap.parse_args()

    out = build_dir()
    try:
        build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2

    run_dir = os.path.join(os.path.dirname(out), "run")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--serve-bin", os.path.join(out, "gpumech_serve"),
           "--run-dir", os.path.relpath(run_dir, ROOT),
           "--build-type", BUILD_TYPE, "--commit", source_commit()]
    if args.tiny:
        cmd.append("--tiny")
    # Relative socket paths stay short whatever the checkout's location.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print("perfbench: run failed with code %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
