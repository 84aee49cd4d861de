#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds the perfbench runner from this checkout's sources, runs one
workload in its own process, and passes its output through. The last
line printed is one JSON object with the keys correct, attempted, failed
and metrics.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1> [--tiny 1]

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; traced runs also write their
spans there, under spans/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A benchmark process must finish well inside three minutes.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure once, then let the build tool bring the runner up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no penelope sources at {os.path.join(ROOT, 'src')}")
    out = os.path.join(build_dir(), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tiny", str(args.tiny), "--git-sha", git_sha()]
    if args.trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if proc.returncode != 0 or not isinstance(result, dict) \
            or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with {proc.returncode} "
             "and no result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
