#!/usr/bin/env python3
"""Paired CPU-time comparison of two source trees on one benchmark workload.

    python3 scripts/ab_pairs.py PARENT_TREE CHANGE_TREE WORKLOAD SEED PAIRS

``src/sullivan`` of each tree is copied under a package name of its own into
a temporary directory, and both copies are loaded into this one process, so
that a pair of passes shares the machine's state of the moment.  The job list
is WORKLOAD's seeded list from ``perfbench/workloads.py`` of the tree this
script lives in, loaded once per copy and only read; its ``run_job`` and
``digest`` then run against that copy.  A WORKLOAD of the form ``wedge-R-N``
(``wedge-4-10``, say) is instead one model job, as ``model-wedge`` makes
them: the wedge of R 2-spheres truncated at N, its relations shuffled by
SEED, compared by the digest of its generator table.  A WORKLOAD of the form
``json-wedge-R-N`` is the same wedge written to an input file and printed as
a user meets it, by ``cli.main(["model", "--input", F, "--json"])``, which
times the build and the printing together; its digest is the sha256 of the
exit code and the printed text, stdout first.

First every job runs once on each side, and the two sides' output digests
must agree (exit 1 otherwise).  Then PAIRS pairs of passes over the whole job
list are timed by ``time.process_time``, the side that goes first alternating
from pair to pair.  The report gives each side's median and quartiles, the
median and quartiles of the per-pair ratio change / parent, and the number of
pairs in which the change was faster.

Each job is timed on its own as well.  Per job, the report gives each side's
median over the passes and the number of pairs in which the change was
faster.  The median of a side's per-job medians is how the benchmark defines
``job_p50_s``; it is printed for each side, and so is the number of pairs in
which the median over the jobs of that pair's job times was lower on the
change.  Last come each side's sum over the jobs of the job's minimum time
and the ratio change / parent of those sums.  A minimum is reached in a fast
spell of the machine, so that sum holds up better than the medians when the
machine's speed swings during the run.

On a noisy host, run an A/A comparison first: the same tree as both PARENT
and CHANGE, with the workload, seed and number of pairs of the A/B run.  Its
ratio shows how far apart two identical sides read on that host, so quote
it alongside the A/B result; an A/B ratio no further from 1 than the A/A one
shows nothing.
"""

import importlib
import importlib.util
import os
import random
import re
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(os.path.dirname(HERE), "perfbench", "workloads.py")
SIDES = ("parent", "change")
# the modules perfbench/workloads.py imports from the package
IMPORTED = ("cli", "fixtures", "gca", "minimal_model", "presented")
WEDGE = re.compile(r"(json-)?wedge-(\d+)-(\d+)")


def _load_side(side: str, tree: str, tmp: str):
    """Copy the tree's package to ``sullivan_<side>`` and load workloads.py on it."""
    name = f"sullivan_{side}"
    shutil.copytree(
        os.path.join(tree, "src", "sullivan"),
        os.path.join(tmp, name),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    aliases = {"sullivan": importlib.import_module(name)}
    for sub in IMPORTED:
        aliases[f"sullivan.{sub}"] = importlib.import_module(f"{name}.{sub}")
    saved = {key: sys.modules.get(key) for key in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{side}", WORKLOADS_PY)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return workloads


def _jobs(workloads, workload: str, seed: int, workdir: str) -> list:
    """WORKLOAD's seeded job list, or the one job of a ``wedge-R-N`` or a
    ``json-wedge-R-N``."""
    scale = WEDGE.fullmatch(workload)
    if scale is None:
        return workloads.make_inputs(workload, seed, workdir)
    printed, r, n = scale.groups()
    r, n = int(r), int(n)
    gens, rels = workloads._wedge_presentation(r, random.Random(seed))
    if not printed:
        return [workloads.Job(f"wedge-r{r}-N{n}", "model", gens, rels, n)]
    lines = ["algebra:", *(f"  gen {name} {deg}" for name, deg in gens)]
    lines += [*(f"  rel {rel}" for rel in rels), f"  truncation {n}"]
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, f"wedge-r{r}-N{n}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    # run_job hands the argv of any job kind but "model" to cli.main
    return [workloads.Job(f"json-wedge-r{r}-N{n}", "cli",
                          argv=["model", "--input", path, "--json"], truncation=n)]


def _summary(values) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{q2:.4f} [{q1:.4f}, {q3:.4f}]"


def main(argv) -> int:
    if len(argv) != 5:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    parent_tree, change_tree, workload, seed, pairs = argv
    seed, pairs = int(seed), int(pairs)
    if pairs < 2:
        print("PAIRS must be at least 2", file=sys.stderr)
        return 64
    tmp = tempfile.mkdtemp(prefix="ab_pairs_")
    try:
        sys.path.insert(0, tmp)
        loaded = {
            side: _load_side(side, tree, tmp)
            for side, tree in zip(SIDES, (parent_tree, change_tree))
        }
        jobs = _jobs(loaded["parent"], workload, seed, os.path.join(tmp, "work"))

        differ = []
        for job in jobs:
            digests = {
                side: wl.digest(job, *wl.run_job(job)) for side, wl in loaded.items()
            }
            if digests["parent"] != digests["change"]:
                differ.append(job.label)
        if differ:
            print(f"outputs differ on {len(differ)} of {len(jobs)} jobs: {', '.join(differ)}")
            return 1
        print(f"{workload} seed {seed}: {len(jobs)} jobs, outputs identical")

        times = {side: [] for side in SIDES}
        # job_times[side][p][j]: CPU s of job j in pass p
        job_times = {side: [] for side in SIDES}
        for i in range(pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                run_job = loaded[side].run_job
                started = time.process_time()
                marks = []
                for job in jobs:
                    run_job(job)
                    marks.append(time.process_time())
                times[side].append(marks[-1] - started)
                job_times[side].append([t - s for s, t in zip([started] + marks, marks)])
        ratios = [c / p for p, c in zip(times["parent"], times["change"])]
        for side in SIDES:
            print(f"{side:6} CPU s per pass, median [q1, q3]: {_summary(times[side])}")
        print(f"ratio change/parent, median [q1, q3]: {_summary(ratios)}")
        print(f"change faster in {sum(r < 1 for r in ratios)}/{pairs} pairs")

        medians = {
            side: [statistics.median(column) for column in zip(*job_times[side])]
            for side in SIDES
        }
        for j, job in enumerate(jobs):
            wins = sum(c[j] < p[j] for p, c in zip(job_times["parent"], job_times["change"]))
            print(f"job {job.label:24} CPU s median parent {medians['parent'][j]:.5f} "
                  f"change {medians['change'][j]:.5f}  change faster in {wins}/{pairs} pairs")
        for side in SIDES:
            print(f"{side:6} median of per-job medians (job_p50): "
                  f"{statistics.median(medians[side]):.5f} s")
        pair_p50 = {side: [statistics.median(row) for row in job_times[side]] for side in SIDES}
        wins = sum(c < p for p, c in zip(pair_p50["parent"], pair_p50["change"]))
        print(f"median job time lower on the change in {wins}/{pairs} pairs")
        minima = {side: sum(map(min, zip(*job_times[side]))) for side in SIDES}
        for side in SIDES:
            print(f"{side:6} sum of per-job CPU minima: {minima[side]:.5f} s")
        print(f"ratio of the sums change/parent: {minima['change'] / minima['parent']:.4f}")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
