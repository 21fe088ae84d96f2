"""Workload definitions: seeded inputs, the jobs that consume them, oracles.

A workload is a fixed list of jobs. ``make_inputs(workload, seed)`` draws
every input from ``random.Random(seed)``; the program under test only sees
the drawn presentations and files. ``run_job`` is the timed unit of work.
``check_job`` runs the oracle for one job's output and is never timed or
traced. ``digest`` fingerprints an output so that two runs, or two hash
seeds, can be compared byte for byte.

The same seed always yields the same inputs. The seed never changes job
count, degrees or truncations, and for generic draws not the generator
counts either: ``expected_shape`` gives them and ``shape_of`` measures them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

import sullivan.cli as cli
import sullivan.fixtures as fixtures
import sullivan.gca as gca
import sullivan.minimal_model as minimal_model
import sullivan.presented as presented

# (r, N): wedges of r 2-spheres, model truncated at N. The r=3, N=11 wedge is
# left out: gca.monomial_basis recursion raises RecursionError there.
WEDGE_JOBS = ((3, 9), (4, 8), (3, 10))
WEDGE_JOBS_SMOKE = ((3, 6), (4, 5))

# (generators, relations, N): random quadratic presentations.
DENSE_JOBS = ((4, 8, 7),) * 3 + ((3, 5, 8),) * 4
DENSE_JOBS_SMOKE = ((4, 8, 5), (3, 5, 5))
DENSE_COEFF = 4
# dim V^m, m = 2, 3, ..., of the model of a generic presentation with
# (generators, relations); measured at seed 1, equal for every seed tried.
DENSE_GENERIC_GENERATORS = {(4, 8): (4, 8, 12, 31, 92), (3, 5): (3, 5, 5, 10, 24, 55)}

# Verdicts on the wedge of three 2-spheres: two seeded attachments per cell
# dimension n, plus the bundled fixtures with an expected status.
VERDICT_R = 3
VERDICT_CELLS = tuple(range(3, 9))
VERDICT_CELLS_SMOKE = (3, 4, 5)
VERDICT_PER_CELL = 2
# Bundled fixtures with their documented (status, clause); even mode has no
# top-level clause.
VERDICT_FIXTURES = {
    "cp2-attach": ("Formal", "special-decomposable"),
    "wedge3-e6": ("NotFormal", "indecomposable-u"),
    "fatwedge-e6": ("Inconclusive", "nonspecial-decomposable"),
    "even-4k": ("Formal", None),
}
VERDICT_FIXTURES_SMOKE = ("cp2-attach", "even-4k")

# The documented exit codes, fixed here rather than read from the package,
# so that a change to them shows up as failed jobs.
EXIT_CODES = {"Formal": 0, "NotFormal": 10, "Inconclusive": 20}


def expected_cell_verdict(n: int) -> tuple[int, str, str]:
    """(exit code, status, clause) for a seeded n-cell on the wedge.

    n=3 pairs with stage-0 generators; n=4 with stage-1 generators, whose
    [u] is a product; for n>=5 the wedge has no cohomology in degrees
    3..n-1, so [u] cannot decompose.
    """
    if n == 3:
        return EXIT_CODES["Inconclusive"], "Inconclusive", "hurewicz-nonzero"
    if n == 4:
        return EXIT_CODES["Formal"], "Formal", "special-decomposable"
    return EXIT_CODES["NotFormal"], "NotFormal", "indecomposable-u"


@dataclass
class Job:
    """One unit of timed work and what its oracle needs."""

    label: str
    kind: str  # "model" or "verdict"
    generators: list[tuple[str, int]] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)
    truncation: int = 0
    argv: list[str] = field(default_factory=list)
    expect: tuple[int, str, str | None] | None = None
    oracle: str = ""  # "witt" or "dense" for model jobs
    sizes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation


def _wedge_presentation(r: int, rng: random.Random | None):
    gens = [(f"a{i}", 2) for i in range(1, r + 1)]
    rels = [f"a{i}*a{j}" if i != j else f"a{i}^2"
            for i in range(1, r + 1) for j in range(i, r + 1)]
    if rng is not None:
        rng.shuffle(rels)
    return gens, rels


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by plain Fraction elimination (independent of sullivan)."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(len(work)):
            if i != rank and work[i][c]:
                f = work[i][c] / work[rank][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


def _dense_presentation(k: int, q: int, rng: random.Random):
    """k degree-2 generators, q independent random quadratic relations."""
    gens = [(f"x{i}", 2) for i in range(1, k + 1)]
    monos = [f"x{i}*x{j}" if i != j else f"x{i}^2"
             for i in range(1, k + 1) for j in range(i, k + 1)]
    while True:
        rows = [[rng.randint(-DENSE_COEFF, DENSE_COEFF) for _ in monos]
                for _ in range(q)]
        if _rank(rows) == q:
            break
    rels = []
    for row in rows:
        text = " + ".join(f"{c}*{m}" for c, m in zip(row, monos) if c)
        rels.append(text.replace("+ -", "- "))
    return gens, rels


def _reference_generators(r: int, top: int) -> list[gca.Generator]:
    """Generators of the r-wedge model through ``top``, from one build.

    Generators below the truncation do not depend on it, so this one build
    names the degree-(n-1) generators for every cell dimension n <= top.
    """
    gens, rels = _wedge_presentation(r, None)
    algebra = presented.PresentedAlgebra.from_strings(gens, rels, top + 1)
    return list(minimal_model.build_minimal_model(algebra, top).generators)


def _random_rational(rng: random.Random) -> str:
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    den = rng.randint(1, 5)
    return str(Fraction(num, den))


def make_inputs(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Job]:
    """The workload's job list for ``seed``; verdict files go into ``workdir``."""
    rng = random.Random(seed)
    jobs: list[Job] = []
    if workload == "model-wedge":
        for r, n in (WEDGE_JOBS_SMOKE if smoke else WEDGE_JOBS):
            gens, rels = _wedge_presentation(r, rng)
            jobs.append(Job(f"wedge-r{r}-N{n}", "model", gens, rels, n,
                            oracle="witt", sizes={"r": r, "q": len(rels), "N": n}))
    elif workload == "model-dense":
        counter: dict[tuple, int] = {}
        for k, q, n in (DENSE_JOBS_SMOKE if smoke else DENSE_JOBS):
            gens, rels = _dense_presentation(k, q, rng)
            i = counter[(k, q, n)] = counter.get((k, q, n), -1) + 1
            jobs.append(Job(f"dense-k{k}-q{q}-N{n}-{i}", "model", gens, rels, n,
                            oracle="dense", sizes={"r": k, "q": q, "N": n}))
    elif workload == "verdict-cli":
        cells = VERDICT_CELLS_SMOKE if smoke else VERDICT_CELLS
        reference = _reference_generators(VERDICT_R, max(cells))
        gens, rels = _wedge_presentation(VERDICT_R, None)
        os.makedirs(workdir, exist_ok=True)
        for n in cells:
            names = [g.name for g in reference if g.degree == n - 1]
            max_dim = gca.generating_series_dimension(
                [g for g in reference if g.degree < n], n + 1)
            for i in range(VERDICT_PER_CELL):
                support = rng.sample(names, rng.randint(1, 3))
                lines = ["algebra:"]
                lines += [f"  gen {name} {deg}" for name, deg in gens]
                lines += [f"  rel {rel}" for rel in rels]
                lines += [f"  truncation {n}", "attach:", f"  cell {n}"]
                lines += [f"  alpha {name} {_random_rational(rng)}" for name in support]
                path = os.path.join(workdir, f"cell{n}-{i}.txt")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(lines) + "\n")
                jobs.append(Job(f"cell{n}-{i}", "verdict",
                                argv=["verdict", "--input", path, "--json"],
                                expect=expected_cell_verdict(n), truncation=n,
                                sizes={"r": VERDICT_R, "q": len(rels), "N": n,
                                       "n": n, "k": len(support),
                                       "max_cochain_dim": max_dim}))
        for fid in (VERDICT_FIXTURES_SMOKE if smoke else VERDICT_FIXTURES):
            fixture = fixtures.get_fixture(fid)
            status, clause = VERDICT_FIXTURES[fid]
            jobs.append(Job(f"fixture-{fid}", "verdict",
                            argv=["verdict", "--fixture", fid, "--json"],
                            expect=(EXIT_CODES[status], status, clause),
                            truncation=fixture.truncation,
                            sizes={"N": fixture.truncation, "n": fixture.cell}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# the timed unit of work


def run_job(job: Job):
    """Do the job as a user would; returns (output, exit code or None)."""
    if job.kind == "model":
        algebra = presented.PresentedAlgebra.from_strings(
            job.generators, job.relations, job.truncation + 1)
        return minimal_model.build_minimal_model(algebra, job.truncation), None
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(job.argv)
    return out.getvalue() + err.getvalue(), code


def digest(job: Job, output, code) -> str:
    """sha256 of the output: the generator table, or the printed text."""
    if job.kind == "model":
        model = output
        lines = [f"{g.name} {g.degree} {g.stage} d={model.d_of(g)} rho={model.rho[g]}"
                 for g in sorted(model.generators, key=gca.Generator.sort_key)]
        text = "\n".join(lines)
    else:
        text = f"exit={code}\n{output}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shape_of(job: Job, output) -> dict:
    """Seed-independent shape of a job: its degrees and generator counts."""
    if job.kind != "model":
        return {"truncation": job.truncation}
    counts: dict[int, int] = {}
    for g in output.generators:
        counts[g.degree] = counts.get(g.degree, 0) + 1
    return {"truncation": job.truncation,
            "generators": [counts.get(m, 0) for m in range(2, job.truncation + 1)]}


def expected_shape(job: Job) -> dict:
    """The shape every seed must give; degree N holds no generators."""
    if job.kind != "model":
        return {"truncation": job.truncation}
    below = job.truncation - 2  # degrees 2..N-1
    if job.oracle == "witt":
        counts = witt_dimensions(len(job.generators), job.truncation)[:below]
    else:
        counts = DENSE_GENERIC_GENERATORS[(len(job.generators), len(job.relations))][:below]
    return {"truncation": job.truncation, "generators": list(counts) + [0]}


def max_cochain_dimension(job: Job, output) -> int | None:
    """Largest cochain space the job works in: Lambda^(N+1)(V), not enumerated.

    Seeded verdict jobs carry it from set-up; fixtures have none recorded.
    """
    if job.kind == "model":
        return gca.generating_series_dimension(output.generators, job.truncation + 1)
    return job.sizes.get("max_cochain_dim")


# ---------------------------------------------------------------------------
# oracles (never timed)


def witt_dimensions(r: int, top: int) -> list[int]:
    """dim V^m for m = 2..top of the model of a wedge of r 2-spheres.

    The homotopy Lie algebra is free on r degree-1 classes (Hilton-Milnor;
    Felix-Halperin-Thomas, GTM 205), so its dimensions l_k satisfy the PBW
    identity prod_{k odd}(1+t^k)^l_k / prod_{k even}(1-t^k)^l_k = 1/(1-rt),
    and dim V^(k+1) = l_k.
    """
    series = [1] + [0] * top  # the product over the l_j found so far
    dims = []
    for k in range(1, top):
        lk = r ** k - series[k]
        dims.append(lk)
        for _ in range(lk):
            if k % 2:  # multiply by (1 + t^k)
                for i in range(top, k - 1, -1):
                    series[i] += series[i - k]
            else:  # multiply by 1 / (1 - t^k)
                for i in range(k, top + 1):
                    series[i] += series[i - k]
    return dims


def check_job(job: Job, output, code) -> str | None:
    """None when the output passes its oracle, else the reason it fails."""
    if job.kind == "verdict":
        want_code, want_status, want_clause = job.expect
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            payload = json.loads(output)
        except ValueError:
            return "output is not JSON"
        if payload.get("status") != want_status:
            return f"status {payload.get('status')!r}, expected {want_status!r}"
        if want_clause is not None and payload.get("clause") != want_clause:
            return f"clause {payload.get('clause')!r}, expected {want_clause!r}"
        return None
    model = output
    if job.oracle == "witt":
        got, want = shape_of(job, model), expected_shape(job)
        if got != want:
            return f"dim V^m = {got['generators']}, Witt numbers give {want['generators']}"
        return None
    problems = model.verify() + minimal_model.verify_standard(model)
    if problems:
        return "; ".join(problems[:3])
    for m in range(0, job.truncation + 1):
        h = model.dgca.cohomology(m).dimension
        a = model.algebra.graded_component(m).dimension
        if h != a:
            return f"dim H^{m}(model) = {h} but dim A^{m} = {a}"
    return None
