#!/usr/bin/env python3
"""Where a model build spends its time, by cProfile cumulative share.

    python3 scripts/profile_build.py --wedge 3 10
    python3 scripts/profile_build.py --fixture fatwedge-e6 --repeat 5
    python3 scripts/profile_build.py --input presentation.txt
    python3 scripts/profile_build.py --workload model-wedge 5 --counts

``--wedge r N`` builds the minimal model of the wedge of r 2-spheres
(degree-2 generators, every quadratic monomial a relation) truncated at N,
from the presentation that ``perfbench/workloads.py`` gives ``model-wedge``
and ``scripts/ab_pairs.py wedge-R-N``, with its relations left unshuffled.
``--fixture ID`` runs the command a user would: ``sullivan verdict`` for a
fixture with a cell, ``sullivan model`` otherwise, with ``--json`` output
discarded.  ``--input FILE`` runs ``sullivan model --input FILE --json``,
so that any presentation, a dense one say, can be profiled.
``--workload NAME SEED`` runs one pass over the seeded job list of a
``perfbench`` workload, its input files written to a temporary directory
before the work starts.  ``--repeat`` runs the work that many times under
one profile.

``--counts`` runs the work without the profiler and prints what the sparse
elimination did instead: over every ``RowSpace``, the inserts, the dependent
ones among them, the rows an insert back-substituted into, and the pivots
that the walk visits (every pivot below the new one), bucketed by the
space's rank at the insert, with the number of spaces that inserted in each
bucket.  The visits are counted whether or not the build looked the rows up
in its column index instead (from rank ``linalg.INDEX_RANK`` on), so the
table shows what the walk would cost at each rank.  The counts come from
wrappers this script puts around ``RowSpace.__init__`` and
``RowSpace.insert``, which the constructor hands every row; they add a copy
of the stored rows to every insert.  A last line gives the entries of every
``RowSpace.kernel`` vector and how many of them are ``Fraction``s, from a
wrapper around ``RowSpace.kernel``: an entry is an int wherever it is
integral, so the share shows how far the integral path reaches.

For each hot layer of the cohomology elimination (d of each cochain is the
``_d_code`` row: the list of (code, coefficient) pairs that ``boundaries``
hands on as it is, and ``d_basis`` is ``_d_code`` itself; the spaces a
complex builds again when it extends are ``from_class_rows``), of the kill step
(``_kill_step``, which includes its ``extend_codes`` call and its rho* rows
on the pure classes, ``_rho_constraints``), of the product loop that writes
[u] as a sum of products (``decomposition``) and of the presented algebra A
(its ideal slices and its indecomposables), for the d^2 and standardness
checks of a model, and for the printing of ``sullivan model --json``
(``cli.model_json``, which prints each d(g) from its stored codes), it prints
the number of calls, the cumulative seconds and the share of the profiled
total.
A's graded components have no row of their own: ``graded_component`` is
``FreeDGCA.cohomology``, one code object, so its row would count the
model's cohomology too.  cProfile adds a cost to every Python call, so the
shares are indicative; time the same work with profiling off before quoting
a speed-up.  Standard library only.
"""

import argparse
import contextlib
import cProfile
import io
import pathlib
import pstats
import sys
import tempfile
from bisect import bisect_left, bisect_right
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sullivan import cli, dgca, linalg, minimal_model  # noqa: E402
from sullivan.fixtures import get_fixture  # noqa: E402
from sullivan.minimal_model import build_minimal_model  # noqa: E402
from sullivan.presented import PresentedAlgebra  # noqa: E402

LAYERS = {
    "CohomologySpace.__init__": dgca.CohomologySpace.__init__,
    "CohomologySpace.from_class_rows": dgca.CohomologySpace.from_class_rows,
    "kernel_rref": linalg.kernel_rref,
    "RowSpace.insert": linalg.RowSpace.insert,
    "RowSpace.kernel": linalg.RowSpace.kernel,
    "FreeDGCA._d_code": dgca.FreeDGCA._d_code,
    "FreeDGCA.extend_codes": dgca.FreeDGCA.extend_codes,
    "minimal_model._kill_step": minimal_model._kill_step,
    "minimal_model._rho_constraints": minimal_model._rho_constraints,
    "linalg.solve_rows": linalg.solve_rows,
    "CohomologySpace.class_of": dgca.CohomologySpace.class_of,
    "CohomologySpace.coordinates": dgca.CohomologySpace.coordinates,
    "dgca.decomposition": dgca.decomposition,
    "PresentedAlgebra.boundaries": PresentedAlgebra.boundaries,
    "PresentedAlgebra.indecomposables": PresentedAlgebra.indecomposables,
    "FreeDGCA.verify_d_squared": dgca.FreeDGCA.verify_d_squared,
    "minimal_model.verify_standard": minimal_model.verify_standard,
    "cli.model_json": cli.model_json,
}


def _workloads():
    """perfbench/workloads.py, which makes the benchmark's inputs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def wedge_job(r: int, n: int):
    """The wedge as ``model-wedge`` and ``ab_pairs.py wedge-R-N`` make it,
    with its relations in generator order."""
    gens, rels = _workloads()._wedge_presentation(r, None)

    def job():
        algebra = PresentedAlgebra.from_strings(gens, rels, n + 1)
        build_minimal_model(algebra, n)

    return job


def fixture_job(fixture_id: str):
    command = "verdict" if get_fixture(fixture_id).cell is not None else "model"
    return cli_job([command, "--fixture", fixture_id, "--json"])


def workload_job(name: str, seed: int, workdir: str):
    """One pass over a perfbench workload's seeded job list."""
    workloads = _workloads()
    jobs = workloads.make_inputs(name, seed, workdir)

    def job():
        for each in jobs:
            workloads.run_job(each)

    return job


# lower edges of the rank buckets of --counts, after the first (rank 0)
RANK_EDGES = (64, 128, 256, 512)
COUNTS = ("spaces", "inserts", "dependent", "back-subs", "pivot visits")


def _bucket_label(b: int) -> str:
    if b == 0:
        return f"< {RANK_EDGES[0]}"
    if b == len(RANK_EDGES):
        return f">= {RANK_EDGES[-1]}"
    return f"{RANK_EDGES[b - 1]}-{RANK_EDGES[b] - 1}"


def insert_counts(job, repeat: int) -> tuple[list[list[int]], int]:
    """Run ``job`` with ``RowSpace`` wrapped; the COUNTS per rank bucket, and
    the largest rank at an insert."""
    space_class = linalg.RowSpace
    init, insert = space_class.__init__, space_class.insert
    table = [[0] * len(COUNTS) for _ in range(len(RANK_EDGES) + 1)]
    # the bucket each live space last inserted in, by id: a new space starts
    # with none, so an id that Python hands out again is not mistaken
    last_bucket: dict[int, int | None] = {}
    top = 0

    def counted_init(self, rows=()):
        last_bucket[id(self)] = None
        init(self, rows)

    def counted_insert(self, row):
        nonlocal top
        rank = len(self._rows)
        top = max(top, rank)
        b = bisect_right(RANK_EDGES, rank)
        counts = table[b]
        if last_bucket.get(id(self)) != b:
            last_bucket[id(self)] = b
            counts[0] += 1
        counts[1] += 1
        before = self._rows.copy()
        p = insert(self, row)
        if p is None:
            counts[2] += 1
            return p
        at = bisect_left(self._pivots, p)
        rows = self._rows
        counts[3] += sum(rows[q] is not before[q] for q in self._pivots[:at])
        counts[4] += at
        return p

    space_class.__init__, space_class.insert = counted_init, counted_insert
    try:
        for _ in range(repeat):
            job()
    finally:
        space_class.__init__, space_class.insert = init, insert
    return table, top


def counting_kernel_entries(job, counts: list[int]):
    """``job`` with ``RowSpace.kernel`` wrapped while it runs: each call adds
    the entries of the kernel vectors to counts[0] and the ``Fraction``s
    among them to counts[1]."""
    space_class = linalg.RowSpace

    def counted_job():
        kernel = space_class.kernel

        def counted_kernel(self, ncols):
            vectors = kernel(self, ncols)
            for vec in vectors:
                counts[0] += len(vec)
                counts[1] += sum(type(v) is Fraction for v in vec.values())
            return vectors

        space_class.kernel = counted_kernel
        try:
            job()
        finally:
            space_class.kernel = kernel

    return counted_job


def print_counts(table: list[list[int]], top: int) -> None:
    print(f"RowSpace inserts by rank at insert (largest rank at an insert {top}; "
          f"the column index starts at rank {linalg.INDEX_RANK})")
    print(f"{'rank':<10}" + "".join(f"{name:>14}" for name in COUNTS))
    for b, counts in enumerate(table):
        print(f"{_bucket_label(b):<10}" + "".join(f"{c:>14}" for c in counts))
    totals = [sum(column) for column in zip(*table)]
    print(f"{'all':<10}" + "".join(f"{c:>14}" for c in [""] + totals[1:]))


def cli_job(argv: list[str]):
    def job():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code not in (0, 10, 20):  # the command failed; its message is on stderr
            sys.exit(code)

    return job


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--wedge", nargs=2, type=int, metavar=("R", "N"))
    which.add_argument("--fixture", metavar="ID")
    which.add_argument("--input", metavar="FILE")
    which.add_argument("--workload", nargs=2, metavar=("NAME", "SEED"))
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--counts", action="store_true",
                   help="count the elimination's inserts by rank instead of profiling")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="profile_build_") as workdir:
        if args.wedge:
            job = wedge_job(*args.wedge)
        elif args.fixture:
            job = fixture_job(args.fixture)
        elif args.input:
            job = cli_job(["model", "--input", args.input, "--json"])
        else:
            name, seed = args.workload
            job = workload_job(name, int(seed), workdir)
        if args.counts:
            kernel = [0, 0]
            print_counts(*insert_counts(counting_kernel_entries(job, kernel), args.repeat))
            print(f"RowSpace.kernel entries built {kernel[0]}, Fractions among them {kernel[1]}")
            return 0
        return print_profile(job, args.repeat)


def print_profile(job, repeat: int) -> int:
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(repeat):
        job()
    profile.disable()
    stats = pstats.Stats(profile)
    total = stats.total_tt
    by_code = {(file, line, name): (nc, ct) for (file, line, name), (_, nc, _, ct, _)
               in stats.stats.items()}

    print(f"profiled total {total:.3f} s over {repeat} run(s)")
    print(f"{'layer':<34} {'calls':>9} {'cum s':>8} {'share':>7}")
    for label, func in LAYERS.items():
        code = func.__code__
        calls, cum = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0.0))
        share = cum / total if total else 0.0
        print(f"{label:<34} {calls:>9} {cum:>8.3f} {share:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
