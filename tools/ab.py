#!/usr/bin/env python3
"""Interleaved A/B comparison of two versions on the repo benchmark.

Exports a parent and a change checkout into a temporary directory,
builds the perfbench runner in each, then runs N pairs of
`perfbench/run.py` per workload with the order alternating (parent first
in even pairs, change first in odd ones), so slow drift on a shared host
lands on both sides alike. For every end-to-end metric in BENCHMARK.json
it prints the median and interquartile range of each side, the relative
change of the medians, how many pairs the change won, and "unresolved"
when the parent's own IQR is wider than the metric's bound (the host is
too noisy to tell a change of that size). Failed-op shares and any run
that reports correct=false are printed too, and so is each side's median
count of minor page faults per run (getrusage(RUSAGE_CHILDREN) deltas
around each run.py call, so the count covers run.py's whole process
tree: its no-op build check and the runner itself). A setup_s or
peak_rss_mb move that comes from the allocator shows up there.

    python3 tools/ab.py [--parent REV] [--change REV|WORKTREE]
                        [--pairs N] [--workloads a,b] [--seconds S]
                        [--seed N] [--json OUT] [--keep]

REV is any git revision of this repo. WORKTREE (the default change) is
the working tree as it stands: tracked files plus untracked files that
are not ignored, so uncommitted work can be measured before it is
committed. Run from anywhere inside the repo; the exported checkouts
carry no .git, so their records say git_sha "unknown".
"""

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "WORKTREE"


def log(message):
    print(message, file=sys.stderr, flush=True)


def git(*args, text=True):
    proc = subprocess.run(["git", "-C", ROOT, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=text)
    if proc.returncode != 0:
        err = proc.stderr if text else proc.stderr.decode(errors="replace")
        sys.exit(f"ab: git {' '.join(args)} failed: {err.strip()}")
    return proc.stdout


def export(version, dest):
    """Write the files of `version` (a revision or WORKTREE) into dest."""
    os.makedirs(dest)
    if version == WORKTREE:
        listing = git("ls-files", "-z", "--cached", "--others",
                      "--exclude-standard")
        for rel in filter(None, listing.split("\0")):
            src = os.path.join(ROOT, rel)
            if not os.path.isfile(src):
                continue  # deleted in the working tree
            os.makedirs(os.path.dirname(os.path.join(dest, rel)),
                        exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))
        return
    data = git("archive", "--format=tar", version, text=False)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def run_bench(checkout, workload, seed, seconds, tiny=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--tiny", str(tiny)]
    # Each checkout builds into its own tree, whatever the caller's env.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        sys.exit(f"ab: {workload} failed in {checkout}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    result["minor_faults"] = faults
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(workload, runs, metrics):
    """Print one workload's table; return its rows for --json."""
    rows = []
    print(f"\n{workload}  ({len(runs['parent'])} pairs)")
    print(f"  {'metric':<14} {'parent median [IQR]':>28} "
          f"{'change median [IQR]':>28} {'delta':>8} {'wins':>6}")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        lower_better = metric["better"] == "lower"
        sides = {}
        for side in ("parent", "change"):
            values = [r["metrics"][name]["value"] for r in runs[side]]
            q1, q3 = quartiles(values)
            sides[side] = (values, statistics.median(values), q1, q3)
        pv, pmed, pq1, pq3 = sides["parent"]
        cv, cmed, cq1, cq3 = sides["change"]
        delta = (cmed - pmed) / pmed if pmed else 0.0
        wins = sum((c < p) if lower_better else (c > p)
                   for p, c in zip(pv, cv))
        spread = (pq3 - pq1) / pmed if pmed else 0.0
        unresolved = spread > bound
        flag = (f"unresolved (parent IQR {spread:.1%} > {bound:.0%})"
                if unresolved else "")
        print(f"  {name:<14} {pmed:>10.4g} [{pq1:.4g}, {pq3:.4g}]"
              f"{'':>2} {cmed:>10.4g} [{cq1:.4g}, {cq3:.4g}]"
              f"{'':>2} {delta:>+7.1%} {wins:>3}/{len(pv):<2} {flag}")
        rows.append({"metric": name, "parent": pv, "change": cv,
                     "parent_median": pmed, "parent_iqr": [pq1, pq3],
                     "change_median": cmed, "change_iqr": [cq1, cq3],
                     "delta": delta, "change_wins": wins,
                     "unresolved": unresolved})
    faults = {"metric": "minor_faults"}
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        wrong = sum(not r["correct"] for r in runs[side])
        share = failed / attempted if attempted else 0.0
        faults[side] = [r["minor_faults"] for r in runs[side]]
        faults[f"{side}_median"] = statistics.median(faults[side])
        print(f"  {side}: failed-op share {share:.3g}, minor page faults "
              f"per run median {faults[f'{side}_median']:.0f}"
              + (f", {wrong} run(s) correct=false" if wrong else ""))
    rows.append(faults)
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--change", default=WORKTREE)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default: all in "
                             "BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--json", help="write every sample here")
    parser.add_argument("--keep", action="store_true",
                        help="keep the exported checkouts")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w]
                 or [w["name"] for w in bench["workloads"]])
    seconds = (args.seconds if args.seconds is not None
               else bench["run_seconds"])

    tmp = tempfile.mkdtemp(prefix="penelope-ab-")
    checkouts = {"parent": os.path.join(tmp, "parent"),
                 "change": os.path.join(tmp, "change")}
    try:
        for side, version in (("parent", args.parent),
                              ("change", args.change)):
            log(f"ab: exporting {side} ({version}) and building")
            export(version, checkouts[side])
            run_bench(checkouts[side], workloads[0], args.seed, 0, tiny=1)
        print(f"A/B: parent {args.parent} vs change {args.change}, "
              f"{args.pairs} interleaved pairs per workload, seed "
              f"{args.seed}, --seconds {seconds:g}, host cores "
              f"{os.cpu_count()}")
        report = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = (("parent", "change") if pair % 2 == 0
                         else ("change", "parent"))
                for side in order:
                    log(f"ab: {workload} pair {pair + 1}/{args.pairs} "
                        f"{side}")
                    runs[side].append(run_bench(checkouts[side], workload,
                                                args.seed, seconds))
            report[workload] = summarize(workload, runs, bench["end_to_end"])
        if args.json:
            with open(args.json, "w") as f:
                json.dump({"parent": args.parent, "change": args.change,
                           "pairs": args.pairs, "seconds": seconds,
                           "seed": args.seed, "workloads": report}, f,
                          indent=1)
    finally:
        if args.keep:
            log(f"ab: checkouts kept in {tmp}")
        else:
            shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    main()
