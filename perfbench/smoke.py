"""The benchmark's own smoke check: fast, so the harness cannot rot unnoticed.

Run from the root of a source checkout:

    python3 perfbench/smoke.py

It runs every workload once at reduced size (``run.py --smoke``), the
tracer twice on one workload, and ``run.py`` once in a directory that holds
only the benchmark. It asserts that:

  * every end-to-end and per-layer metric that BENCHMARK.json names is
    printed with its unit, and nothing else is;
  * no job fails (``failed_frac`` = 0) and no job's shape differs from the
    seed-independent one;
  * the traced exact counts repeat across two traced runs of one seed;
  * without the package sources the benchmark exits non-zero, prints no
    result, and does so quickly.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")


def _run(workload, trace, seed=1, cwd="."):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.splitlines()


def _check_result(lines, declared, label):
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: failures\n" + "\n".join(lines))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        raise AssertionError(f"{label}: metrics/units {got} != declared {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")
    if not any(line.strip().startswith("failed_frac") and " 0 ratio" in line for line in lines):
        raise AssertionError(f"{label}: no 'failed_frac 0 ratio' line")
    if any(line.strip().startswith("SHAPE") for line in lines):
        raise AssertionError(f"{label}: seed-dependent shape\n" + "\n".join(lines))
    return result


def _trace_counts(workload):
    path = os.path.join("perfbench", "_out", f"trace-{workload}-seed1.json")
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if not report["job_trees"] or not report["spans"]:
        raise AssertionError(f"{path}: no span trees")
    return report["exact_counts"]


def _bare_directory_fails():
    """Only BENCHMARK.json and the benchmark's files: a quick non-zero exit."""
    bare = os.path.join("perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy("BENCHMARK.json", bare)
    for path in glob.glob(os.path.join(HERE, "*.py")):
        shutil.copy(path, os.path.join(bare, "perfbench"))
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, RUN, "--workload", "model-wedge", "--seed", "1",
                               "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, cwd=bare, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    if time.monotonic() - start > 60:
        raise AssertionError("bare directory: took more than 60 s to fail")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        _check_result(_run(workload, 0), end_to_end, f"{workload} --trace 0")
        print(f"ok  {workload} at reduced size")
    counts = []
    for _ in range(2):
        _check_result(_run("verdict-cli", 1), per_layer, "verdict-cli --trace 1")
        counts.append(_trace_counts("verdict-cli"))
    if counts[0] != counts[1]:
        raise AssertionError(f"traced exact counts differ: {counts[0]} != {counts[1]}")
    print("ok  tracer: every per-layer metric, exact counts repeat")
    _bare_directory_fails()
    print("ok  exits non-zero without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
