"""Bundled example inputs with known verdicts.

Each fixture describes a base algebra, a model truncation, and optionally an
attachment or an even-complex run.  Stage-1 generators whose differentials
are single monomials get conventional aliases (b1, b12, v1, w12, c11, z,
...) so that printed tables read like the usual hand computations; anything
without a clean pattern keeps its machine name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable

from .attachment import AlphaFunctional, AttachmentModel
from .errors import InputError, IntegrityError
from .gca import Generator, Monomial
from .minimal_model import BigradedModel, build_minimal_model
from .presented import PresentedAlgebra

_WEDGE3_GENS = [("a1", 2), ("a2", 2), ("a3", 2)]
_WEDGE3_RELS = ["a1^2", "a1*a2", "a1*a3", "a2^2", "a2*a3", "a3^2"]

_FATWEDGE_GENS = [("a1", 2), ("a2", 2), ("a3", 2), ("x1", 2), ("x2", 2), ("x3", 2)]
_FATWEDGE_RELS = [
    "a1^2", "a1*a2", "a1*a3", "a2^2", "a2*a3", "a3^2",
    "x1^2", "x2^2", "x3^2",
    "x1*x2*x3",
    "a1*x1", "a1*x2", "a1*x3",
    "a2*x1", "a2*x2", "a2*x3",
    "a3*x1", "a3*x2", "a3*x3",
]


@dataclass(frozen=True)
class Fixture:
    """A bundled example: algebra, truncation, optional attachment."""

    fixture_id: str
    description: str
    generators: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    truncation: int
    cell: int | None = None
    expected_status: str | None = None
    even_half_degree: int | None = None
    # the attaching data: (generator name, coefficient) pairs, named as the
    # aliased model names them
    alpha: tuple[tuple[str, Fraction], ...] = ()
    _alias_builder: Callable[[BigradedModel], dict[str, str]] | None = field(
        default=None, repr=False
    )


@dataclass
class BuiltFixture:
    fixture: Fixture
    algebra: PresentedAlgebra
    model: BigradedModel
    alpha: AlphaFunctional | None

    @cached_property
    def attached(self) -> AttachmentModel | None:
        """The fixture's attachment, built on first use."""
        if self.alpha is None:
            return None
        return AttachmentModel(self.model, self.alpha)


def _suffix(name: str) -> str:
    """a1 -> 1, x2 -> 2; a bare one-letter name contributes nothing.

    Collisions produced by empty suffixes are detected by the callers and
    fall back to machine names.
    """
    if len(name) >= 2 and name[1:].isdigit():
        return name[1:]
    return "" if len(name) == 1 else "_" + name


def _single_monomial(model: BigradedModel, gen: Generator) -> Monomial | None:
    d = model.d_of(gen)
    mons = d.monomials()
    if len(mons) == 1 and d.coefficient(mons[0]) == 1:
        return mons[0]
    return None


def alias_monomial_targets(model: BigradedModel) -> dict[str, str]:
    """Alias stage-1 generators with monomial differentials.

    A target g^2 becomes b + suffix(g); a target g*h becomes
    b + suffix(g) + suffix(h).  Ambiguous cases are skipped.
    """
    mapping: dict[str, str] = {}
    used = {g.name for g in model.generators}
    for gen in model.generators:
        if gen.stage != 1:
            continue
        mon = _single_monomial(model, gen)
        if mon is None:
            continue
        if [e for _, e in mon.powers] not in ([2], [1, 1]):
            continue
        alias = "b" + "".join(_suffix(g.name) for g, _ in mon.powers)
        if alias in used:
            continue
        used.add(alias)
        mapping[gen.name] = alias
    return mapping


def _wedge3_aliases(model: BigradedModel) -> dict[str, str]:
    mapping = alias_monomial_targets(model)
    renamed = model.rename(mapping)
    # name the degree-5 stage-3 generators whose differentials contain a
    # product of two square-type b's after the pair they involve
    squares = {}
    for g in renamed.generators:
        if g.stage == 1:
            mon = _single_monomial(renamed, g)
            if mon and len(mon.powers) == 1:
                squares[_suffix(mon.powers[0][0].name)] = g
    reverse = {v: k for k, v in mapping.items()}
    for i, j in (("1", "2"), ("1", "3"), ("2", "3")):
        bi, bj = squares.get(i), squares.get(j)
        if bi is None or bj is None:
            continue
        pair = Monomial(tuple(sorted([(bi, 1), (bj, 1)], key=lambda p: p[0].sort_key())))
        alias = f"k{i}{j}"
        for g in renamed.generators:
            if g.degree == 5 and g.stage == 3 and renamed.d_of(g).coefficient(pair):
                mapping[reverse.get(g.name, g.name)] = alias
                break
    return mapping


def _fatwedge_aliases(model: BigradedModel) -> dict[str, str]:
    mapping: dict[str, str] = {}
    used = {g.name for g in model.generators}
    for gen in model.generators:
        if gen.stage == 1 and gen.degree == 3:
            mon = _single_monomial(model, gen)
            if mon is None:
                continue
            powers = mon.powers
            names = sorted(g.name for g, _ in powers)
            if len(powers) == 1 and powers[0][1] == 2:
                base = powers[0][0].name
                alias = ("v" if base.startswith("x") else "c") + _suffix(base) + (
                    "" if base.startswith("x") else _suffix(base)
                )
            elif len(powers) == 2:
                first, second = powers[0][0].name, powers[1][0].name
                if first.startswith("a") and second.startswith("a"):
                    alias = "c" + _suffix(first) + _suffix(second)
                elif first.startswith("a") and second.startswith("x"):
                    alias = "w" + _suffix(first) + _suffix(second)
                else:
                    continue
            else:
                continue
            if alias in used:
                continue
            used.add(alias)
            mapping[gen.name] = alias
        elif gen.stage == 1 and gen.degree == 5:
            mon = _single_monomial(model, gen)
            if mon and mon.word_length == 3 and "z" not in used:
                mapping[gen.name] = "z"
                used.add("z")
    first_violator = next(
        (g for g in model.generators if g.degree == 5 and g.stage == 3), None
    )
    if first_violator is not None and "g12" not in used:
        mapping[first_violator.name] = "g12"
    return mapping


FIXTURES: dict[str, Fixture] = {}


def _register(fixture: Fixture):
    FIXTURES[fixture.fixture_id] = fixture


_register(
    Fixture(
        "cp1",
        "the 2-sphere: one degree-2 class a with a^2 = 0",
        (("a", 2),),
        ("a^2",),
        truncation=4,
        expected_status=None,
        _alias_builder=alias_monomial_targets,
    )
)
_register(
    Fixture(
        "cp2-attach",
        "a 4-cell attached to the 2-sphere along the relation class "
        "(db = a^2); the result has the cohomology of Q[a]/(a^3)",
        (("a", 2),),
        ("a^2",),
        truncation=4,
        cell=4,
        expected_status="Formal",
        _alias_builder=alias_monomial_targets,
        alpha=(("b", Fraction(1)),),
    )
)
_register(
    Fixture(
        "wedge3-s2",
        "wedge of three 2-spheres: three degree-2 classes, all products zero",
        tuple(_WEDGE3_GENS),
        tuple(_WEDGE3_RELS),
        truncation=5,
        expected_status=None,
        _alias_builder=alias_monomial_targets,
    )
)
_register(
    Fixture(
        "wedge3-e6",
        "wedge of three 2-spheres with a 6-cell attached along the "
        "degree-5 class k12; the new top class is indecomposable",
        tuple(_WEDGE3_GENS),
        tuple(_WEDGE3_RELS),
        truncation=6,
        cell=6,
        expected_status="NotFormal",
        _alias_builder=_wedge3_aliases,
        alpha=(("k12", Fraction(1)),),
    )
)
_register(
    Fixture(
        "fatwedge-e6",
        "wedge of three 2-spheres with the 4-skeleton of (S^2)^3, plus a "
        "6-cell pairing both a stage-1 and a stage-3 degree-5 class; u is "
        "decomposable but the attachment is not special",
        tuple(_FATWEDGE_GENS),
        tuple(_FATWEDGE_RELS),
        truncation=6,
        cell=6,
        expected_status="Inconclusive",
        _alias_builder=_fatwedge_aliases,
        alpha=(("z", Fraction(1)), ("g12", Fraction(1))),
    )
)
_register(
    Fixture(
        "even-4k",
        "two degree-2 classes with one 4-cell attached along the product "
        "class (a Whitehead attachment); run in even-complex mode with "
        "k = 1, the result is S^2 x S^2",
        (("a1", 2), ("a2", 2)),
        (),
        truncation=4,
        cell=4,
        expected_status="Formal",
        even_half_degree=1,
        alpha=(("b12", Fraction(1)),),
    )
)


def fixture_ids() -> list[str]:
    return sorted(FIXTURES)


def get_fixture(fixture_id: str) -> Fixture:
    fixture = FIXTURES.get(fixture_id)
    if fixture is None:
        import difflib

        close = difflib.get_close_matches(fixture_id, FIXTURES, n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise InputError(f"unknown fixture {fixture_id!r}{hint}")
    return fixture


def algebra_of(fixture: Fixture) -> PresentedAlgebra:
    return PresentedAlgebra.from_strings(
        list(fixture.generators), list(fixture.relations), fixture.truncation + 1
    )


def build_fixture(fixture_id: str, algebra: PresentedAlgebra | None = None) -> BuiltFixture:
    """Build the fixture's model (with aliases) and its alpha, if any.

    ``algebra`` is the fixture's algebra when the caller has already built it.
    """
    fixture = get_fixture(fixture_id)
    if algebra is None:
        algebra = algebra_of(fixture)
    model = build_minimal_model(algebra, fixture.truncation)
    if fixture._alias_builder is not None:
        model = model.rename(fixture._alias_builder(model))
    alpha = None
    if fixture.cell is not None and fixture.even_half_degree is None:
        missing = [name for name, _ in fixture.alpha if model.generator_named(name) is None]
        if missing:
            raise IntegrityError(
                f"fixture {fixture_id!r}: the alpha names "
                + ", ".join(repr(name) for name in missing)
                + " are not in its aliased model"
            )
        alpha = AlphaFunctional.build(model, fixture.cell, fixture.alpha)
    return BuiltFixture(fixture, algebra, model, alpha)


def even_cells_of(fixture: Fixture) -> list[tuple[int, list[tuple[str, Fraction]]]]:
    """The cell list an even-mode fixture feeds to even_complex_formality."""
    if fixture.even_half_degree is None:
        raise InputError(f"fixture {fixture.fixture_id!r} is not an even-mode fixture")
    return [(fixture.cell, list(fixture.alpha))]
