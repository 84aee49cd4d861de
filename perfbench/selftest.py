#!/usr/bin/env python3
"""Self-test of the repo benchmark, at tiny sizes.

For every workload in BENCHMARK.json it checks that:
  * the untraced run prints every end-to-end metric and the traced run
    every per-layer metric, each with the unit BENCHMARK.json gives;
  * the outputs are correct (tiny runs also cross-check each re-driven
    workload against the library call it mirrors);
  * the seed argument changes the inputs: two seeds give different hashes;
  * traced and untraced runs of one seed give the same hashes.

    python3 perfbench/selftest.py      # from the root of a checkout
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (3, 4)


def run(workload, seed, trace):
    """One tiny run; returns (record, result) parsed from its output."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--tiny", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} "
                           f"exited with {proc.returncode}")
    lines = proc.stdout.strip().split("\n")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return record, json.loads(lines[-1])


def check_metrics(result, expected, label, errors):
    printed = result["metrics"]
    for metric in expected:
        got = printed.get(metric["name"])
        if got is None:
            errors.append(f"{label}: {metric['name']} not printed")
        elif got.get("unit") != metric["unit"]:
            errors.append(f"{label}: {metric['name']} has unit "
                          f"{got.get('unit')!r}, not {metric['unit']!r}")
    extra = set(printed) - {m["name"] for m in expected}
    if extra:
        errors.append(f"{label}: unexpected metrics {sorted(extra)}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        hashes = {}
        for seed, trace in ((SEEDS[0], 0), (SEEDS[0], 1), (SEEDS[1], 0)):
            label = f"{workload} seed {seed} trace {trace}"
            try:
                record, result = run(workload, seed, trace)
            except (RuntimeError, StopIteration, ValueError) as e:
                errors.append(f"{label}: {e}")
                continue
            if result["correct"] is not True:
                errors.append(f"{label}: outputs are not correct")
            check_metrics(result,
                          bench["per_layer" if trace else "end_to_end"],
                          label, errors)
            hashes[(seed, trace)] = record["hashes"]
        if len(hashes) < 3:
            continue
        if hashes[(SEEDS[0], 0)] != hashes[(SEEDS[0], 1)]:
            errors.append(f"{workload}: traced and untraced hashes differ")
        if any(hashes[(SEEDS[0], 0)][k] == hashes[(SEEDS[1], 0)][k]
               for k in hashes[(SEEDS[0], 0)]):
            errors.append(f"{workload}: seeds {SEEDS} give the same hash")
        print(f"{workload}: checked", flush=True)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
