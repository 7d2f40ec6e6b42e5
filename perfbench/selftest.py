#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json briefly through run.py and checks:
  - the result line holds exactly the metrics BENCHMARK.json names
    (end_to_end untraced, per_layer traced) with their units, and every
    printed metric, span and workload name matches [A-Za-z0-9_.-]+ within
    the 16 end-to-end / 128 per-layer limits;
  - repeated iterations reproduce the warm-up outputs (correct is true)
    and no operation failed;
  - the same seed reproduces the outcome digest and another seed changes
    it (the seed drives the generated inputs).
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def check(condition, message):
    if not condition:
        print(f"selftest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    check(out.returncode == 0,
          f"{workload} seed {seed} trace {trace} exited "
          f"{out.returncode}: {out.stderr[-400:]}")
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_result(workload, lines, result, spec):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{workload}: outputs inconsistent")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{workload}: {result['failed']} of {result['attempted']} failed")
    check(set(result["metrics"]) == set(spec),
          f"{workload}: metrics {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        check(metric["unit"] == spec[name], f"{workload}: unit of {name}")
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind in ("metric", "layer", "info", "span"):
            check(NAME.match(rest.split(" ")[0]),
                  f"{workload}: bad name in '{line}'")


def digest(lines):
    return next(line for line in lines if line.startswith("outcome "))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(len(e2e) <= 16 and len(layer) <= 128, "metric count limits")
    workloads = [w["name"] for w in bench["workloads"]]
    for name in list(e2e) + list(layer) + workloads:
        check(NAME.match(name) and len(name) <= 64, f"bad name {name}")

    for workload in workloads:
        lines, result = run(workload, 7, 0)
        check_result(workload, lines, result, e2e)
        again, _ = run(workload, 7, 0)
        check(digest(lines) == digest(again),
              f"{workload}: seed 7 outcome digest not reproducible")
        other, _ = run(workload, 8, 0)
        check(digest(lines) != digest(other),
              f"{workload}: seeds 7 and 8 give the same outcomes")
        lines, result = run(workload, 7, 1)
        check_result(workload, lines, result, layer)
        print(f"selftest: {workload} ok")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
