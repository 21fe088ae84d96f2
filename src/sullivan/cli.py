"""Command-line front end.

Subcommands:

    model     build and print the bigraded minimal model of an algebra
    attach    attach a cell and report the cohomology of the result
    verdict   run the formality criterion (exit code 0/10/20)
    examples  list the bundled fixtures

Input files use a flat sectioned format; see the README for the grammar.
Exit codes: 0 Formal, 10 NotFormal, 20 Inconclusive, 64 usage errors,
65 invalid input data, 70 internal integrity failures, output that could
not be written or running out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from . import expr
from .attachment import AttachmentModel
from .errors import InputError, IntegrityError, ParseError, SullivanError
from .fixtures import FIXTURES, Job, JobSpec, fixture_ids, get_fixture, load_job
from .formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    even_complex_formality,
    formality_verdict,
)
from .gca import format_terms, monomial_text
from .minimal_model import BigradedModel

# Not called here: perfbench/layertrace.py wraps build_fixture and
# build_minimal_model under every module name bound to them and requires
# these bindings.
from .fixtures import build_fixture  # noqa: F401
from .minimal_model import build_minimal_model  # noqa: F401

SCHEMA = 1

EXIT_OK = 0
EXIT_NOT_FORMAL = 10
EXIT_INCONCLUSIVE = 20
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_STATUS_EXIT = {FORMAL: EXIT_OK, NOT_FORMAL: EXIT_NOT_FORMAL, INCONCLUSIVE: EXIT_INCONCLUSIVE}


def _integer_flag(word: str) -> int:
    """An integer option value: an optionally signed run of ASCII digits, as
    in the input file."""
    if not expr.INTEGER.fullmatch(word):
        raise argparse.ArgumentTypeError(f"invalid integer {word!r}")
    try:
        return expr.parse_integer(word)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# ---------------------------------------------------------------------------
# renderers


def _format_table(rows: list[list[str]], header: list[str]) -> str:
    table = [header] + rows
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _dimensions(cohomology, top: int) -> list[dict]:
    return [{"degree": m, "dim": cohomology(m).dimension} for m in range(top + 1)]


def render_model_text(payload: dict) -> str:
    gens = payload["generators"]
    if not gens:
        return "(no generators)"
    dims = Counter(g["degree"] for g in gens)
    rows = []
    for g in gens:
        dim = dims.pop(g["degree"], 0)  # shown on the first row of its degree only
        head = [str(g["degree"]), str(dim)] if dim else ["", ""]
        rows.append([*head, g["name"], str(g["stage"]), g["d"], g["rho"]])
    return _format_table(rows, ["deg", "dim", "generator", "stage", "differential", "rho"])


def model_json(model: BigradedModel) -> dict:
    """The payload of ``model``.  Each d(g) is printed from its codes: their
    positions follow `Generator.sort_key`, so code order is `Monomial.sort_key`
    order, and the text is ``str(model.d_of(g))`` with no d(g) decoded."""
    algebra = model.algebra
    names = [g.name for g in model.generators]
    return {
        "schema": SCHEMA,
        "command": "model",
        "algebra": {
            "generators": [
                {"name": g.name, "degree": g.degree} for g in algebra.generators
            ],
            "relations": [str(r) for r in algebra.relations],
            "truncation": algebra.truncation,
        },
        "truncation": model.truncation,
        "generators": [
            {
                "name": g.name,
                "degree": g.degree,
                "stage": g.stage,
                "d": format_terms(  # the codes of one d(g) are distinct
                    (monomial_text([(names[p], e) for p, e in code]), c) for code, c in sorted(dg)
                ),
                "rho": str(model.rho[g]),
            }
            for g, dg in model.dgca.d_codes()
        ],
        "cohomology": _dimensions(algebra.graded_component, model.truncation),
    }


def attach_json(attached: AttachmentModel) -> dict:
    u = attached.u_class()
    u_data = {"zero": u.is_zero}
    decomposable = witness_data = None
    if not u.is_zero:
        body = attached.u_body_representative()
        u_data["expression"] = None if body is None else str(body)
        decomposable, witness = attached.u_decomposable()
        if decomposable:
            witness_data = [
                {"coefficient": str(c), "left": str(c1), "right": str(c2)}
                for c, c1, c2 in witness
            ]
    return {
        "schema": SCHEMA,
        "command": "attach",
        "cell": attached.n,
        "alpha": [[g.name, str(c)] for g, c in attached.alpha.coefficients],
        "alpha_coerced": attached.alpha.coerced,
        "u": u_data,
        "u_decomposable": decomposable,
        "u_decomposition": witness_data,
        "cohomology": _dimensions(attached.cohomology, attached.truncation),
    }


def render_attach_text(payload: dict) -> str:
    lines = [f"cell: n = {payload['cell']}"]
    if payload["alpha_coerced"]:
        lines.append("notice: a 2-cell attachment is rationally a wedge; alpha = 0")
    if not payload["alpha"]:
        lines.append("alpha: 0")
    for name, c in payload["alpha"]:
        lines.append(f"alpha: {name} -> {c}")
    u = payload["u"]
    if u["zero"]:
        lines.append("u = 0 (the attaching class has nonzero Hurewicz image)")
    elif u["expression"] is None:
        lines.append("u spans a new class (not visible in the base)")
    else:
        lines.append(f"u = [{u['expression']}]  (nonzero)")
    if payload["u_decomposable"]:
        terms = " + ".join(
            f"({w['coefficient']})*{w['left']}*{w['right']}" for w in payload["u_decomposition"]
        )
        lines.append(f"u decomposable: yes;  u = {terms}")
    elif payload["u_decomposable"] is not None:
        lines.append("u decomposable: no")
    lines.append("")
    lines.append("cohomology of the attached complex:")
    rows = [[str(row["degree"]), str(row["dim"])] for row in payload["cohomology"]]
    lines.append(_format_table(rows, ["degree", "dim"]))
    return "\n".join(lines)


def render_verdict_text(payload: dict) -> str:
    lines = [f"status: {payload['status']}", f"clause: {payload['clause']}"]
    for key in sorted(payload["witness"]):
        lines.append(f"witness.{key}: {payload['witness'][key]}")
    lines.append("assumptions:")
    for a in payload["assumptions"]:
        lines.append(f"  - {a}")
    return "\n".join(lines)


def verdict_json(verdict) -> dict:
    return {"schema": SCHEMA, "command": "verdict", **verdict.to_json()}


def even_json(result) -> dict:
    return {
        "schema": SCHEMA,
        "command": "verdict",
        "mode": "even-complex",
        "half_degree": result.half_degree,
        "status": result.status,
        "cells": [verdict_json(v) for v in result.verdicts],
        "final_cohomology": _dimensions(result.final.graded_component, 4 * result.half_degree),
    }


def render_even_text(payload: dict) -> str:
    lines = [f"even-complex mode, k = {payload['half_degree']}"]
    for i, v in enumerate(payload["cells"]):
        lines.append(f"cell {i}: {v['status']} ({v['clause']})")
    dims = " ".join(str(row["dim"]) for row in payload["final_cohomology"])
    lines.append("final cohomology dims (degree 0..4k): " + dims)
    lines.append(f"overall: {payload['status']}")
    return "\n".join(lines)


def examples_json() -> dict:
    return {
        "schema": SCHEMA,
        "command": "examples",
        "fixtures": [
            {
                "id": f.fixture_id,
                "description": f.description,
                "truncation": f.truncation,
                "cell": f.cell,
                "even_half_degree": f.even_half_degree,
                "expected_status": f.expected_status,
            }
            for f in (FIXTURES[i] for i in fixture_ids())
        ],
    }


def render_examples_text(payload: dict) -> str:
    rows = [[f["id"], f["expected_status"] or "-", f["description"]] for f in payload["fixtures"]]
    return _format_table(rows, ["id", "verdict", "description"])


# ---------------------------------------------------------------------------
# command implementations


def _load_job(args) -> tuple[Job, int | None]:
    """The job of --input or --fixture, and the half-degree of an even-mode
    run: --even K, or else an even-mode fixture's own."""
    even = getattr(args, "even", None)
    if args.fixture and args.input:
        raise InputError("--fixture and --input are mutually exclusive")
    if args.fixture:
        if args.truncation is not None:
            raise InputError("--truncation cannot override a fixture's truncation")
        fixture = get_fixture(args.fixture)
        k = fixture.even_half_degree if even is None else even
        return load_job(fixture.text, fixture_id=fixture.fixture_id), k
    if not args.input:
        raise InputError("either --input FILE or --fixture ID is required")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {args.input}: not UTF-8 text at byte {exc.start}")
    # even mode builds each complex through 4k and reads no truncation; the
    # floor of 2 leaves a bad K to even mode's own refusal
    default = None if even is None else max(4 * even, 2)
    return load_job(text, args.truncation, default=default), even


def cmd_model(args) -> int:
    _emit(args, model_json(_load_job(args)[0].model()), render_model_text)
    return EXIT_OK


def _even_cells(spec: JobSpec) -> list:
    """The cells of an even-mode job."""
    if spec.relations:
        raise InputError(
            "even mode derives the wedge skeleton itself; "
            "remove the relations from the algebra section"
        )
    if spec.names is not None:
        raise InputError(
            "even mode names the skeleton's generators itself; remove the names: section"
        )
    cells = []
    for section in spec.attaches:
        if section.cell is None:
            raise InputError("every attach section needs a 'cell N' line")
        cells.append((section.cell, section.pairs))
    if not cells:
        raise InputError("even mode needs at least one attach: section")
    return cells


def _emit(args, payload: dict, render) -> None:
    """Print a command's payload: as JSON under --json, else as its text."""
    print(json.dumps(payload, indent=2) if args.json else render(payload))


def cmd_attach(args) -> int:
    job, k = _load_job(args)
    if k is not None:  # attach has no --even: k is an even-mode fixture's own
        raise InputError(
            f"fixture {job.fixture_id!r} is an even-mode fixture; use: verdict --even K"
        )
    attached = AttachmentModel(*job.attachment())
    _emit(args, attach_json(attached), render_attach_text)
    return EXIT_OK


def cmd_verdict(args) -> int:
    """Even mode under --even or for an even-mode fixture, else the criterion."""
    job, k = _load_job(args)
    if k is not None:
        payload = even_json(even_complex_formality(job.algebra, k, _even_cells(job.spec)))
        render = render_even_text
    else:
        payload = verdict_json(formality_verdict(*job.attachment()))
        render = render_verdict_text
    _emit(args, payload, render)
    return _STATUS_EXIT[payload["status"]]


def cmd_examples(args) -> int:
    _emit(args, examples_json(), render_examples_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# driver


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--input", metavar="FILE", help="sectioned input file")
    p.add_argument("--fixture", metavar="ID", help="bundled fixture id")
    p.add_argument("--truncation", type=_integer_flag, metavar="N", help="model truncation")
    p.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    It holds no command function: `main` looks ``cmd_<command>`` up when it
    is called, so the parser is an input-independent constant.
    """
    parser = _Parser(
        prog="sullivan",
        description="Minimal Sullivan models and formality of cell attachments "
        "over Q, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    _add_common(sub.add_parser("model", help="build and print the bigraded model"))
    _add_common(sub.add_parser("attach", help="attach a cell, print the cohomology"))
    p_verdict = sub.add_parser("verdict", help="run the formality criterion")
    _add_common(p_verdict)
    p_verdict.add_argument(
        "--even",
        type=_integer_flag,
        metavar="K",
        help="even-complex mode with half-degree K (cells of dimension 4K)",
    )
    p_examples = sub.add_parser("examples", help="list bundled fixtures")
    p_examples.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_INTERNAL
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except SullivanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except MemoryError:
        pass  # reported below, once leaving the handler has freed the command's frames
    print("error: out of memory", file=sys.stderr)
    return EXIT_INTERNAL


def _discard_stdout():
    """Point stdout's descriptor at the null device.

    The interpreter flushes stdout again at exit, which would fail on the
    closed pipe and print a traceback.  A stdout without a descriptor, such
    as a `StringIO` under `contextlib.redirect_stdout`, is left alone.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
