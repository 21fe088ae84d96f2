"""Benchmark entry point: one workload, one seed, one measured run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload model-wedge --seed 1 --seconds 25 --trace 0

Every process it starts runs serially and is waited for:

  * six set-up probes, each a fresh interpreter that imports the package and
    generates the inputs (``setup_s`` is the median of these and the timed
    processes' own set-ups);
  * two timed processes (``PYTHONHASHSEED=0``), each repeating the job list
    for half of ``--seconds`` and timing every job, so that no one process's
    luck decides the figures; with ``--trace 1`` one process takes all of
    ``--seconds`` and alternates untraced and traced passes;
  * the check process (``PYTHONHASHSEED=1``), which runs the job list once,
    untimed, and applies each job's oracle.

A job attempt fails when it raised, or when its output digest differs from
the checked output of the same job (which covers two passes of one seed and
the two hash seeds), or when that checked output failed its oracle.

Human-readable lines come first; the last line of standard output is the
JSON result. With ``--trace 0`` it holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics, and the traced run also writes the
per-job span trees to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("model-wedge", "model-dense", "verdict-cli")
SETUP_PROBES = 6
TIMED_PROCESSES = 2  # untraced runs split their time over fresh processes
DEADLINE_S = 170.0
WORK_DIR = os.path.join("perfbench", "_work")
OUT_DIR = os.path.join("perfbench", "_out")


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced input sizes, for the benchmark's own smoke check")
    return p.parse_args(argv)


def _worker(mode, args, hash_seed, deadline, seconds=0.0):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up imports cached bytecode, as installs do
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR,
           "--trace-out", os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, text=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"the {mode} process did not finish in time")
    if proc.returncode != 0:
        raise BenchError(f"the {mode} process exited with {proc.returncode}:\n{err}")
    return json.loads(out.strip().splitlines()[-1])


def _merge(runs):
    """One run record from the timed processes' records."""
    if any(r["labels"] != runs[0]["labels"] for r in runs):
        raise BenchError("the timed processes drew different jobs")
    merged = dict(runs[0])
    for key in ("jobs", "traced_jobs", "pass_walls"):
        merged[key] = [x for r in runs for x in r[key]]
    merged["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    merged["chunk_ms"] = [min(r["chunk_ms"][0] for r in runs),
                          statistics.median(r["chunk_ms"][1] for r in runs),
                          max(r["chunk_ms"][2] for r in runs)]
    return merged


def _failures(run, check):
    """Failed attempts, and one reason per failing job label."""
    labels = run["labels"]
    reasons: dict[str, str] = {}
    failed = 0
    for records in run["jobs"] + run["traced_jobs"]:
        for label, record, checked in zip(labels, records, check["checks"]):
            reason = None
            if record["error"]:
                reason = "raised: " + record["error"].strip().splitlines()[-1]
            elif checked["digest"] is None:
                reason = "raised in the check process: " + checked["problem"].strip().splitlines()[-1]
            elif record["digest"] != checked["digest"]:
                reason = "output digest differs from the checked run"
            elif checked["problem"]:
                reason = "oracle: " + checked["problem"]
            if reason:
                failed += 1
                reasons.setdefault(label, reason)
    return failed, reasons


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _report(args, setups, run, check):
    """Print the readable summary and return the result object."""
    labels = run["labels"]
    attempted = sum(len(records) for records in run["jobs"] + run["traced_jobs"])
    failed, reasons = _failures(run, check)
    shape_notes = [
        f"{label}: shape {checked['shape']} differs from {checked['expected_shape']}"
        for label, checked in zip(labels, check["checks"])
        if checked["shape"] is not None and checked["shape"] != checked["expected_shape"]]
    job_medians = [statistics.median(records[i]["s"] for records in run["jobs"])
                   for i in range(len(labels))]
    end_to_end = {
        "wall_s": {"value": statistics.median(run["pass_walls"]), "unit": "s"},
        "job_p50_s": {"value": statistics.median(job_medians), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(run['jobs'])}  jobs/pass {len(labels)}  attempted {attempted}")
    for name, metric in end_to_end.items():
        print(f"  {name:12s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'failed_frac':12s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"  job_p50_s over {len(labels)} jobs, each the median of {len(run['jobs'])} passes; "
          f"setup_s over {len(setups)} processes")
    raw_walls = [sum(record["raw_s"] for record in records) for records in run["jobs"]]
    print(f"  raw wall per pass {[round(w, 3) for w in raw_walls]} s; sampler chunk "
          f"min/median/max {[round(c, 3) for c in run['chunk_ms']]} ms")
    for i, label in enumerate(labels):
        checked = check["checks"][i]
        print(f"  job {label:24s} median {job_medians[i]:8.4f} s  "
              f"sizes {run['sizes'][i]}  max cochain dim {checked['max_dim']}  "
              f"sha256 {checked['digest'] or '-'}")
    for label, reason in reasons.items():
        print(f"  FAILED {label}: {reason}")
    for note in shape_notes:
        print(f"  SHAPE {note}")
    if args.trace:
        layers = run["layers"]
        print(f"  traced: {layers['trace.spans']} spans per pass, overhead "
              f"{layers['trace.overhead_s']:+.4f} s per pass; span trees in {OUT_DIR}")
    declared = _declared_units("per_layer" if args.trace else "end_to_end")
    values = run["layers"] if args.trace else {k: v["value"] for k, v in end_to_end.items()}
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} are not "
                         "both produced and declared in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = _parse_args(argv)
    for needed in (os.path.join("src", "sullivan", "__init__.py"), "BENCHMARK.json"):
        if not os.path.isfile(needed):
            print(f"run.py: {needed} not found; run from the root of a source checkout",
                  file=sys.stderr)
            return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_worker("setup", args, 0, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        timed = 1 if args.trace else TIMED_PROCESSES
        runs = [_worker("run", args, 0, deadline, args.seconds / timed) for _ in range(timed)]
        setups += [r["setup_s"] for r in runs]
        run = _merge(runs)
        check = _worker("check", args, 1, deadline)
        if check["labels"] != run["labels"]:
            raise BenchError("the check process drew other jobs than the timed one")
        result = _report(args, setups, run, check)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORK_DIR)  # each worker removed its own input files
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
