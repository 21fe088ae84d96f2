"""Command-line front end.

Subcommands:

    model     build and print the bigraded minimal model of an algebra
    attach    attach a cell and report the cohomology of the result
    verdict   run the formality criterion (exit code 0/10/20)
    examples  list the bundled fixtures

Input files use a flat sectioned format; see the README for the grammar.
Exit codes: 0 Formal, 10 NotFormal, 20 Inconclusive, 64 usage errors,
65 invalid input data, 70 internal integrity failures or output that could
not be written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr
from .attachment import AlphaFunctional, AttachmentModel
from .errors import InputError, IntegrityError, ParseError, SullivanError
from .fixtures import (
    FIXTURES,
    algebra_of,
    build_fixture,
    even_cells_of,
    fixture_ids,
    get_fixture,
)
from .formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    even_complex_formality,
    formality_verdict,
)
from .minimal_model import BigradedModel, build_minimal_model
from .presented import PresentedAlgebra, validate_presentation

SCHEMA = 1

EXIT_OK = 0
EXIT_NOT_FORMAL = 10
EXIT_INCONCLUSIVE = 20
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

_STATUS_EXIT = {FORMAL: EXIT_OK, NOT_FORMAL: EXIT_NOT_FORMAL, INCONCLUSIVE: EXIT_INCONCLUSIVE}


# ---------------------------------------------------------------------------
# input files


@dataclass
class AttachSection:
    cell: int | None = None
    pairs: list[tuple[str, Fraction]] = field(default_factory=list)


@dataclass
class JobSpec:
    generators: list[tuple[str, int]] = field(default_factory=list)
    relations: list[str] = field(default_factory=list)
    relation_lines: list[int] = field(default_factory=list)
    truncation: int | None = None
    attaches: list[AttachSection] = field(default_factory=list)


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(word: str, what: str, lineno: int) -> int:
    """An optionally signed run of ASCII digits; `int` alone also takes
    ``2_0`` and non-ASCII digits."""
    if not _INTEGER.fullmatch(word):
        raise ParseError(f"bad {what} {word!r}", lineno)
    return expr.parse_integer(word, lineno)


def _integer_flag(word: str) -> int:
    """An integer option value, by the rule of `_integer`."""
    if not _INTEGER.fullmatch(word):
        raise argparse.ArgumentTypeError(f"invalid integer {word!r}")
    try:
        return expr.parse_integer(word)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_job(text: str) -> JobSpec:
    """Parse the sectioned input format (``algebra:`` / ``attach:``).

    A job has at most one ``truncation`` line and each attach section at
    most one ``cell`` line; a repeated one is refused, not overwritten.
    """
    spec = JobSpec()
    section = None
    current_attach: AttachSection | None = None
    truncation_line = cell_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "algebra:":
            section = "algebra"
            continue
        if line == "attach:":
            section = "attach"
            current_attach = AttachSection()
            spec.attaches.append(current_attach)
            cell_line = None
            continue
        words = line.split()
        directive = words[0]
        if section == "algebra":
            if directive == "gen":
                if len(words) != 3:
                    raise ParseError("expected: gen NAME DEGREE", lineno)
                spec.generators.append((words[1], _integer(words[2], "degree", lineno)))
            elif directive == "rel":
                rest = line[len("rel") :].strip()
                if not rest:
                    raise ParseError("expected: rel EXPRESSION", lineno)
                spec.relations.append(rest)
                spec.relation_lines.append(lineno)
            elif directive == "truncation":
                if len(words) != 2:
                    raise ParseError("expected: truncation N", lineno)
                if truncation_line is not None:
                    raise ParseError(
                        f"repeated truncation (first given on line {truncation_line})", lineno
                    )
                spec.truncation = _integer(words[1], "truncation", lineno)
                truncation_line = lineno
            else:
                raise ParseError(f"unknown algebra directive {directive!r}", lineno)
        elif section == "attach":
            assert current_attach is not None
            if directive == "cell":
                if len(words) != 2:
                    raise ParseError("expected: cell N", lineno)
                if cell_line is not None:
                    raise ParseError(
                        f"repeated cell in one attach section (first given on line {cell_line})",
                        lineno,
                    )
                current_attach.cell = _integer(words[1], "cell dimension", lineno)
                cell_line = lineno
            elif directive == "alpha":
                if len(words) != 3:
                    raise ParseError("expected: alpha NAME COEFFICIENT", lineno)
                coeff = expr.parse_rational(words[2], lineno)
                current_attach.pairs.append((words[1], coeff))
            else:
                raise ParseError(f"unknown attach directive {directive!r}", lineno)
        else:
            raise ParseError(
                "content before a section header (expected 'algebra:' or 'attach:')",
                lineno,
            )
    return spec


def _algebra_from_spec(spec: JobSpec, truncation_flag: int | None) -> tuple[PresentedAlgebra, int]:
    if truncation_flag is not None:
        spec.truncation = truncation_flag
    n = spec.truncation
    if n is None:
        raise InputError("no truncation given (use 'truncation N' or --truncation)")
    if n < 2:
        raise InputError(f"truncation {n} is below 2")
    if not spec.generators:
        raise InputError("A+ = 0; nothing to model")
    # the model through degree N reads the algebra through degree N + 1
    shell = PresentedAlgebra.from_strings(spec.generators, [], n + 1)
    by_name = {g.name: g for g in shell.generators}
    relations = [
        expr.parse_element(text, by_name, line=lineno)
        for text, lineno in zip(spec.relations, spec.relation_lines)
    ]
    for i, rel in enumerate(relations, 1):
        d = rel.homogeneous_degree() if rel.is_homogeneous else None
        if d is not None and d > n + 1:
            raise InputError(
                f"invalid presentation: relation #{i} ({rel}): degree {d} exceeds "
                f"N + 1 = {n + 1} for truncation N = {n}"
            )
    algebra = PresentedAlgebra(shell.generators, relations, n + 1)
    problems = validate_presentation(algebra)
    if problems:
        raise InputError("invalid presentation: " + "; ".join(problems))
    return algebra, n


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


def render_model_text(model: BigradedModel) -> str:
    degrees: dict[int, int] = {}
    for g in model.generators:
        degrees[g.degree] = degrees.get(g.degree, 0) + 1
    rows = []
    seen: set[int] = set()
    for g in sorted(model.generators, key=lambda g: g.sort_key()):
        first = g.degree not in seen
        seen.add(g.degree)
        rows.append(
            [
                str(g.degree) if first else "",
                str(degrees[g.degree]) if first else "",
                g.name,
                str(g.stage),
                str(model.d_of(g)),
                str(model.rho[g]),
            ]
        )
    if not rows:
        return "(no generators)"
    return _format_table(rows, ["deg", "dim", "generator", "stage", "differential", "rho"])


def model_json(model: BigradedModel) -> dict:
    algebra = model.algebra
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
                "d": str(model.d_of(g)),
                "rho": str(model.rho[g]),
            }
            for g in sorted(model.generators, key=lambda g: g.sort_key())
        ],
        "cohomology": [
            {"degree": m, "dim": algebra.graded_component(m).dimension}
            for m in range(0, model.truncation + 1)
        ],
    }


def _u_report(attached: AttachmentModel) -> tuple[str, dict]:
    u = attached.u_class()
    if u.is_zero:
        text = "u = 0 (the attaching class has nonzero Hurewicz image)"
        data = {"zero": True}
        return text, data
    body = attached.u_body_representative()
    if body is not None:
        text = f"u = [{body}]  (nonzero)"
        data = {"zero": False, "expression": str(body)}
    else:
        text = "u spans a new class (not visible in the base)"
        data = {"zero": False, "expression": None}
    return text, data


def render_attach_text(attached: AttachmentModel) -> str:
    lines = [f"cell: n = {attached.n}"]
    if attached.alpha.coerced:
        lines.append("notice: a 2-cell attachment is rationally a wedge; alpha = 0")
    if attached.alpha.is_zero:
        lines.append("alpha: 0")
    else:
        for g, c in attached.alpha.coefficients:
            lines.append(f"alpha: {g.name} -> {c}")
    u_text, _ = _u_report(attached)
    lines.append(u_text)
    u = attached.u_class()
    if not u.is_zero:
        decomposable, witness = attached.u_decomposable()
        if decomposable:
            terms = " + ".join(
                f"({c})*{c1}*{c2}" for c, c1, c2 in witness
            )
            lines.append(f"u decomposable: yes;  u = {terms}")
        else:
            lines.append("u decomposable: no")
    lines.append("")
    lines.append("cohomology of the attached complex:")
    rows = [
        [str(m), str(attached.cohomology(m).dimension)]
        for m in range(0, attached.truncation + 1)
    ]
    lines.append(_format_table(rows, ["degree", "dim"]))
    return "\n".join(lines)


def attach_json(attached: AttachmentModel) -> dict:
    u = attached.u_class()
    u_text, u_data = _u_report(attached)
    decomposable = None
    witness_data = None
    if not u.is_zero:
        dec, witness = attached.u_decomposable()
        decomposable = dec
        if dec:
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
        "cohomology": [
            {"degree": m, "dim": attached.cohomology(m).dimension}
            for m in range(0, attached.truncation + 1)
        ],
    }


def render_verdict_text(verdict) -> str:
    lines = [f"status: {verdict.status}", f"clause: {verdict.clause}"]
    for key in sorted(verdict.witness):
        lines.append(f"witness.{key}: {verdict.witness[key]}")
    lines.append("assumptions:")
    for a in verdict.assumptions:
        lines.append(f"  - {a}")
    return "\n".join(lines)


def verdict_json(verdict) -> dict:
    return {"schema": SCHEMA, "command": "verdict", **verdict.to_json()}


# ---------------------------------------------------------------------------
# command implementations


def _load_inputs(args) -> tuple[PresentedAlgebra, int, list[AttachSection], object]:
    """Returns (algebra, truncation, attach sections, fixture-or-None)."""
    if args.fixture and args.input:
        raise InputError("--fixture and --input are mutually exclusive")
    if args.fixture:
        if args.truncation is not None:
            raise InputError("--truncation cannot override a fixture's truncation")
        fixture = get_fixture(args.fixture)
        algebra = algebra_of(fixture)
        return algebra, fixture.truncation, [], fixture
    if not args.input:
        raise InputError("either --input FILE or --fixture ID is required")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {args.input}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {args.input}: not UTF-8 text at byte {exc.start}")
    spec = parse_job(text)
    algebra, truncation = _algebra_from_spec(spec, args.truncation)
    return algebra, truncation, spec.attaches, None


def cmd_model(args) -> int:
    algebra, truncation, _, fixture = _load_inputs(args)
    if fixture is not None:
        model = build_fixture(fixture.fixture_id, algebra).model
    else:
        model = build_minimal_model(algebra, truncation)
    if args.json:
        print(json.dumps(model_json(model), indent=2))
    else:
        print(render_model_text(model))
    return EXIT_OK


def _alpha_for(args) -> tuple[BigradedModel, AlphaFunctional]:
    """The model and the attaching functional of an attach or verdict job."""
    algebra, truncation, attaches, fixture = _load_inputs(args)
    if fixture is not None:
        if fixture.even_half_degree is not None:
            raise InputError(
                f"fixture {fixture.fixture_id!r} is an even-mode fixture; "
                "use: verdict --even K"
            )
        built = build_fixture(fixture.fixture_id, algebra)
        if built.alpha is None:
            raise InputError(f"fixture {fixture.fixture_id!r} has no attachment")
        return built.model, built.alpha
    if len(attaches) != 1:
        raise InputError("exactly one attach: section is required")
    section = attaches[0]
    if section.cell is None:
        raise InputError("the attach section needs a 'cell N' line")
    model = build_minimal_model(algebra, truncation)
    return model, AlphaFunctional.build(model, section.cell, section.pairs)


def cmd_attach(args) -> int:
    attached = AttachmentModel(*_alpha_for(args))
    if args.json:
        print(json.dumps(attach_json(attached), indent=2))
    else:
        print(render_attach_text(attached))
    return EXIT_OK


def cmd_verdict(args) -> int:
    if args.even is None and args.fixture:
        if get_fixture(args.fixture).even_half_degree is not None:
            return _cmd_verdict_even(args)
    if args.even is not None:
        return _cmd_verdict_even(args)
    verdict = formality_verdict(*_alpha_for(args))
    if args.json:
        print(json.dumps(verdict_json(verdict), indent=2))
    else:
        print(render_verdict_text(verdict))
    return _STATUS_EXIT[verdict.status]


def _cmd_verdict_even(args) -> int:
    k = args.even
    algebra, truncation, attaches, fixture = _load_inputs(args)
    if fixture is not None:
        if fixture.even_half_degree is None:
            raise InputError(f"fixture {fixture.fixture_id!r} is not an even-mode fixture")
        k = fixture.even_half_degree
        cells = even_cells_of(fixture)
    else:
        if algebra.relations:
            raise InputError(
                "even mode derives the wedge skeleton itself; "
                "remove the relations from the algebra section"
            )
        cells = []
        for section in attaches:
            if section.cell is None:
                raise InputError("every attach section needs a 'cell N' line")
            cells.append((section.cell, section.pairs))
        if not cells:
            raise InputError("even mode needs at least one attach: section")
    result = even_complex_formality(algebra, k, cells)
    if args.json:
        payload = {
            "schema": SCHEMA,
            "command": "verdict",
            "mode": "even-complex",
            "half_degree": result.half_degree,
            "status": result.status,
            "cells": [verdict_json(v) for v in result.verdicts],
            "final_cohomology": [
                {
                    "degree": m,
                    "dim": result.algebras[-1].graded_component(m).dimension,
                }
                for m in range(0, 4 * result.half_degree + 1)
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        lines = [f"even-complex mode, k = {result.half_degree}"]
        for i, v in enumerate(result.verdicts):
            lines.append(f"cell {i}: {v.status} ({v.clause})")
        final = result.algebras[-1]
        dims = [
            str(final.graded_component(m).dimension)
            for m in range(0, 4 * result.half_degree + 1)
        ]
        lines.append("final cohomology dims (degree 0..4k): " + " ".join(dims))
        lines.append(f"overall: {result.status}")
        print("\n".join(lines))
    return _STATUS_EXIT[result.status]


def cmd_examples(args) -> int:
    if args.json:
        payload = {
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
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    rows = []
    for fid in fixture_ids():
        f = FIXTURES[fid]
        rows.append(
            [
                f.fixture_id,
                f.expected_status or "-",
                f.description,
            ]
        )
    print(_format_table(rows, ["id", "verdict", "description"]))
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sullivan",
        description="Minimal Sullivan models and formality of cell attachments "
        "over Q, in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    p_model = sub.add_parser("model", help="build and print the bigraded model")
    _add_common(p_model)
    p_model.set_defaults(func=cmd_model)
    p_attach = sub.add_parser("attach", help="attach a cell, print the cohomology")
    _add_common(p_attach)
    p_attach.set_defaults(func=cmd_attach)
    p_verdict = sub.add_parser("verdict", help="run the formality criterion")
    _add_common(p_verdict)
    p_verdict.add_argument(
        "--even",
        type=_integer_flag,
        metavar="K",
        help="even-complex mode with half-degree K (cells of dimension 4K)",
    )
    p_verdict.set_defaults(func=cmd_verdict)
    p_examples = sub.add_parser("examples", help="list bundled fixtures")
    p_examples.add_argument("--json", action="store_true")
    p_examples.set_defaults(func=cmd_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
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
