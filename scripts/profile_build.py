#!/usr/bin/env python3
"""Where a model build spends its time, by cProfile cumulative share.

    python3 scripts/profile_build.py --wedge 3 10
    python3 scripts/profile_build.py --fixture fatwedge-e6 --repeat 5
    python3 scripts/profile_build.py --input presentation.txt

``--wedge r N`` builds the minimal model of the wedge of r 2-spheres
(degree-2 generators, every quadratic monomial a relation) truncated at N.
``--fixture ID`` runs the command a user would: ``sullivan verdict`` for a
fixture with a cell, ``sullivan model`` otherwise, with ``--json`` output
discarded.  ``--input FILE`` runs ``sullivan model --input FILE --json``,
so that any presentation, a dense one say, can be profiled.  ``--repeat``
runs the work that many times under one profile.

For each hot layer of the cohomology elimination (and of the spaces a
complex builds again when it extends, ``from_class_rows``), of the kill step
(``_kill_step``, which includes its ``extend_codes`` call, and its rho*
rows, ``_rho_constraints``), of the product loop that writes [u] as a sum
of products (``decomposition``) and of the presented algebra A (its ideal
slices and its indecomposables), and for the d^2 and standardness checks of
a model, it prints the number of calls, the cumulative seconds and the share
of the profiled total.
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

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

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
}


def wedge_job(r: int, n: int):
    gens = [(f"a{i}", 2) for i in range(1, r + 1)]
    rels = [f"a{i}*a{j}" if i != j else f"a{i}^2"
            for i in range(1, r + 1) for j in range(i, r + 1)]

    def job():
        algebra = PresentedAlgebra.from_strings(gens, rels, n + 1)
        build_minimal_model(algebra, n)

    return job


def fixture_job(fixture_id: str):
    command = "verdict" if get_fixture(fixture_id).cell is not None else "model"
    return cli_job([command, "--fixture", fixture_id, "--json"])


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
    p.add_argument("--repeat", type=int, default=1)
    args = p.parse_args(argv)
    if args.wedge:
        job = wedge_job(*args.wedge)
    elif args.fixture:
        job = fixture_job(args.fixture)
    else:
        job = cli_job(["model", "--input", args.input, "--json"])

    profile = cProfile.Profile()
    profile.enable()
    for _ in range(args.repeat):
        job()
    profile.disable()
    stats = pstats.Stats(profile)
    total = stats.total_tt
    by_code = {(file, line, name): (nc, ct) for (file, line, name), (_, nc, _, ct, _)
               in stats.stats.items()}

    print(f"profiled total {total:.3f} s over {args.repeat} run(s)")
    print(f"{'layer':<34} {'calls':>9} {'cum s':>8} {'share':>7}")
    for label, func in LAYERS.items():
        code = func.__code__
        calls, cum = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0.0))
        share = cum / total if total else 0.0
        print(f"{label:<34} {calls:>9} {cum:>8.3f} {share:>7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
