"""One benchmark process: set up a workload, then time, trace or check it.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON object.

Modes:
  setup  import the package and generate the inputs, report the set-up time.
  run    then repeat the job list until ``--seconds`` have passed, timing
         each job (closed loop: one client, the next job starts when the
         previous one returns). With ``--trace 1`` untraced and traced
         passes alternate, and the traced ones also give per-layer figures.
  check  run the job list once, untimed, and apply each job's oracle.

``--t0`` is the orchestrator's monotonic clock just before it started this
process, so the set-up time includes interpreter start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import hostspeed


def _parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "check"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default="")
    p.add_argument("--smoke", action="store_true")
    return p.parse_args(argv)


def _attempt(job):
    """Run one job; returns (start, end, output, exit code, error text)."""
    gc.collect()
    t0 = time.monotonic()
    try:
        output, code = workloads.run_job(job)
    except Exception:  # a raising job is a counted failure, not a crash
        return t0, time.monotonic(), None, None, traceback.format_exc(limit=3)
    return t0, time.monotonic(), output, code, None


def _pass(jobs, tracer=None):
    """Run the job list once; returns one record per job."""
    records = []
    for i, job in enumerate(jobs):
        first = None
        if tracer is not None:
            tracer.start_job(i)
            first = len(tracer.spans)
        t0, t1, output, code, error = _attempt(job)
        record = {"t": (t0, t1),
                  "digest": None if error else workloads.digest(job, output, code),
                  "error": error}
        if tracer is not None:
            record["spans"] = (first, len(tracer.spans))
        records.append(record)
        del output
    return records


def _layer_metrics(tracer, traced_passes):
    """Per-layer figures: counts from the first traced pass, medians of times."""
    per_pass = []
    for records, counters in traced_passes:
        first = records[0]["spans"][0]
        last = records[-1]["spans"][1]
        per_pass.append((tracer.layer_totals(first, last), counters, last - first))
    totals, counters, nspans = per_pass[0]

    def calls(layer):
        return totals[layer]["calls"]

    def self_s(layer):
        return statistics.median(t[layer]["self_s"] for t, _, _ in per_pass)

    def ratio(num, den):
        return num / den if den else 0.0

    verdicts = calls("formality.verdict")
    m = {
        "gca.monomial_basis.calls": calls("gca.monomial_basis"),
        "gca.monomial_basis.self_s": self_s("gca.monomial_basis"),
        "gca.monomial_basis.monomials": counters.get("gca.monomial_basis.monomials", 0),
        "gca.monomial_basis.repeat_ratio": ratio(
            counters.get("gca.monomial_basis.repeats", 0), calls("gca.monomial_basis")),
        "dgca.d_monomial.calls": calls("dgca.d_monomial"),
        "dgca.d_monomial.self_s": self_s("dgca.d_monomial"),
        "dgca.d_monomial.terms": counters.get("dgca.d_monomial.terms", 0),
        "dgca.d_monomial.repeat_ratio": ratio(
            counters.get("dgca.d_monomial.repeats", 0), calls("dgca.d_monomial")),
        "dgca.freedgca.builds": calls("dgca.freedgca"),
        "dgca.cohomology.calls": calls("dgca.cohomology"),
        "dgca.cohomology.self_s": self_s("dgca.cohomology"),
        "linalg.insert.calls": calls("linalg.insert"),
        "linalg.insert.self_s": self_s("linalg.insert"),
        "linalg.insert.dependent_ratio": ratio(
            counters.get("linalg.insert.dependent", 0), calls("linalg.insert")),
        "linalg.reduce.calls": calls("linalg.reduce"),
        "linalg.reduce.self_s": self_s("linalg.reduce"),
        "linalg.kernel.self_s": self_s("linalg.kernel"),
        "linalg.solve_in_span.self_s": self_s("linalg.solve_in_span"),
        "linalg.intersect_spans.self_s": self_s("linalg.intersect_spans"),
        "linalg.max_coeff_bits": counters.get("linalg.max_coeff_bits", 0),
        "presented.graded_component.calls": calls("presented.graded_component"),
        "presented.graded_component.hit_ratio": ratio(
            counters.get("presented.graded_component.hits", 0),
            calls("presented.graded_component")),
        "presented.product.calls": calls("presented.product"),
        "presented.product.self_s": self_s("presented.product"),
        "presented.indecomposables.self_s": self_s("presented.indecomposables"),
        "minimal_model.build.calls": calls("minimal_model.build"),
        "minimal_model.build.self_s": self_s("minimal_model.build"),
        "minimal_model.generators": counters.get("minimal_model.generators", 0),
        "minimal_model.preimage.calls": calls("minimal_model.preimage"),
        "minimal_model.preimage.self_s": self_s("minimal_model.preimage"),
        "attachment.build.calls": calls("attachment.build"),
        "attachment.build.per_verdict": ratio(calls("attachment.build"), verdicts),
        "attachment.verify_d_squared.calls": calls("attachment.verify_d_squared"),
        "attachment.verify_d_squared.self_s": self_s("attachment.verify_d_squared"),
        "attachment.cohomology.calls": calls("attachment.cohomology"),
        "attachment.cohomology.self_s": self_s("attachment.cohomology"),
        "attachment.u_decomposable.self_s": self_s("attachment.u_decomposable"),
        "formality.verdict.calls": verdicts,
        "formality.verdict.self_s": self_s("formality.verdict"),
        "formality.verify_standard.per_verdict": ratio(
            calls("formality.verify_standard"), verdicts),
        "formality.even_complex.self_s": self_s("formality.even_complex"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "fixtures.build_fixture.calls": calls("fixtures.build_fixture"),
        "expr.parse_element.self_s": self_s("expr.parse_element"),
        "trace.spans": nspans,
    }
    exact = {k: v for k, v in m.items() if not k.endswith("_s")}
    for other_totals, other_counters, other_spans in per_pass[1:]:
        if (other_spans != nspans or other_counters != counters
                or any(other_totals[k]["calls"] != totals[k]["calls"] for k in totals)):
            raise RuntimeError("traced passes disagree on exact counts")
    return m, exact


def _timed(args, jobs, sampler):
    """The run mode: passes until the time is up; returns the result dict.

    Job times are reported both raw and at the reference host speed
    (``hostspeed``); the metrics use the normalized ones.
    """
    tracer = None
    if args.trace:
        import layertrace  # only the traced run pays for the wrappers' import

        tracer = layertrace.Tracer()
        sampler.on_sample = tracer.exclude
    passes = []  # per pass: (traced?, job records, counters)
    start = time.monotonic()
    while True:
        traced_now = tracer is not None and passes and not passes[-1][0]
        if traced_now:
            tracer.counters = {}
            tracer.install()
            try:
                records = _pass(jobs, tracer)
            finally:
                tracer.uninstall()
            passes.append((True, records, tracer.counters))
        else:
            passes.append((False, _pass(jobs), None))
        done = time.monotonic() - start >= args.seconds
        if done and (tracer is None or len(passes) >= 2):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sampler.settle()
    for _, records, _ in passes:
        for record in records:
            t0, t1 = record.pop("t")
            record["raw_s"] = t1 - t0
            record["s"] = sampler.normalized(t0, t1)
    walls = {traced: [sum(r["s"] for r in records) for t, records, _ in passes if t == traced]
             for traced in (False, True)}
    result = {
        "pass_walls": walls[False],
        "jobs": [[{k: r[k] for k in ("s", "raw_s", "digest", "error")} for r in records]
                 for traced, records, _ in passes if not traced],
        "traced_jobs": [[{k: r[k] for k in ("digest", "error")} for r in records]
                        for traced, records, _ in passes if traced],
        "peak_rss_mb": rss_mb,
        "chunk_ms": [1000 * d for d in (min(sampler.durations),
                                        statistics.median(sampler.durations),
                                        max(sampler.durations))],
    }
    if tracer is not None:
        traced_passes = [(records, counters) for traced, records, counters in passes if traced]
        metrics, exact = _layer_metrics(tracer, traced_passes)
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = overhead
        result["layers"] = metrics
        records = traced_passes[0][0]
        trees = [tracer.job_tree(r["spans"][0], r["spans"][1], job.label, r["raw_s"])
                 for job, r in zip(jobs, records)]
        first = records[0]["spans"][0]
        last = records[-1]["spans"][1]
        base = tracer.spans[first][1] if last > first else 0.0
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_pass_walls_s": walls[False],
            "traced_pass_walls_s": walls[True],
            "overhead_s": overhead,
            "exact_counts": exact,
            "layers": metrics,
            "job_trees": trees,
            "span_fields": ["layer", "start_s", "end_s", "parent", "job"],
            "layer_names": tracer.layers,
            "spans": [[lid, round(t0 - base, 7), round(t1 - base, 7),
                       parent - first if parent >= 0 else -1, job]
                      for lid, t0, t1, parent, job in tracer.spans[first:last]],
        }
        os.makedirs(os.path.dirname(args.trace_out), exist_ok=True)
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle)
    return result


def _checked(jobs):
    """The check mode: one untimed pass, each output against its oracle."""
    out = []
    for job in jobs:
        _, _, output, code, error = _attempt(job)
        entry = {"expected_shape": workloads.expected_shape(job)}
        out.append(entry)
        if error:
            entry.update(digest=None, problem=error, shape=None, max_dim=None)
            continue
        entry.update({
            "digest": workloads.digest(job, output, code),
            "problem": workloads.check_job(job, output, code),
            "shape": workloads.shape_of(job, output),
            "max_dim": workloads.max_cochain_dimension(job, output),
        })
    return out


def main(argv=None) -> int:
    global workloads
    args = _parse_args(argv)
    sampler = hostspeed.SpeedSampler()
    sampler.start()  # before the package import, which set-up includes
    sampled_from = time.monotonic()
    import workloads

    workdir = os.path.join(args.workdir, str(os.getpid()))
    try:
        jobs = workloads.make_inputs(args.workload, args.seed, workdir, args.smoke)
        setup_end = time.monotonic()
        result = {"labels": [job.label for job in jobs],
                  "sizes": [job.sizes for job in jobs]}
        if args.mode == "run":
            result.update(_timed(args, jobs, sampler))
        elif args.mode == "check":
            sampler.stop()
            result["checks"] = _checked(jobs)
        else:
            sampler.settle()
        if args.mode != "check":
            # interpreter start precedes the sampler; scale it by the same speed
            busy = sampler.busy(sampled_from, setup_end)
            speed = hostspeed.REFERENCE_CHUNK_S / sampler.chunk_time(sampled_from, setup_end)
            result["setup_s"] = (setup_end - args.t0 - busy) * speed
    finally:
        sampler.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
