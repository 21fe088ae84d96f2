"""Bundled example inputs with known verdicts.

Each fixture describes a base algebra, a model truncation, and optionally an
attachment or an even-complex run.  Its generators are named as the usual
hand computations name them, by one rule for every fixture:

- the b-rule (`alias_monomial_targets`): a stage-1 generator whose
  differential is g^2 or g*h is named b + suffix(g), or b + suffix(g) +
  suffix(h), as in b1 and b12, unless that name is taken;
- then each (alias, term) entry of the fixture's ``aliases``, in order,
  names the first generator, in generator order, whose differential has a
  nonzero coefficient on the term.  The term is written in the names given
  so far, and an entry replaces a b-name; an alias that another generator
  already has is a fault of the table.

Anything else keeps its machine name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import expr
from .attachment import AlphaFunctional
from .errors import InputError, IntegrityError, ParseError
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
_FATWEDGE_ALIASES = (
    *((f"c{i}{j}", f"a{i}*a{j}") for i in "123" for j in "123" if i <= j),
    *((f"w{i}{j}", f"a{i}*x{j}") for i in "123" for j in "123"),
    *((f"v{i}", f"x{i}^2") for i in "123"),
    ("z", "x1*x2*x3"),
    ("g12", "c11*c12"),
)


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
    # (alias, term) entries applied after the b-rule; see the module docstring
    aliases: tuple[tuple[str, str], ...] = ()


@dataclass
class BuiltFixture:
    fixture: Fixture
    algebra: PresentedAlgebra
    model: BigradedModel
    alpha: AlphaFunctional | None


def _suffix(name: str) -> str:
    """a1 -> 1, x2 -> 2; a bare one-letter name contributes nothing.

    Collisions produced by empty suffixes are detected by the callers and
    fall back to machine names.
    """
    if len(name) >= 2 and name[1:].isdigit():
        return name[1:]
    return "" if len(name) == 1 else "_" + name


def alias_monomial_targets(model: BigradedModel) -> dict[str, str]:
    """Alias stage-1 generators with monomial differentials (the b-rule).

    A target g^2 becomes b + suffix(g); a target g*h becomes
    b + suffix(g) + suffix(h).  Ambiguous cases are skipped.
    """
    mapping: dict[str, str] = {}
    used = {g.name for g in model.generators}
    for gen, dg in model.dgca.d_codes():
        if gen.stage != 1 or len(dg) != 1:
            continue
        [(code, _, c)] = dg
        if c != 1 or [e for _, e in code] not in ([2], [1, 1]):
            continue
        alias = "b" + "".join(_suffix(model.generators[p].name) for p, _ in code)
        if alias in used:
            continue
        used.add(alias)
        mapping[gen.name] = alias
    return mapping


def _aliases(fixture: Fixture, model: BigradedModel) -> dict[str, str]:
    """The fixture's rename map: the b-rule, then its entries, each term
    matched by its code against the kept differentials, none decoded."""
    mapping = alias_monomial_targets(model)
    named = {mapping.get(g.name, g.name): g for g in model.generators}
    for alias, term in fixture.aliases:
        fault = f"fixture {fixture.fixture_id!r}: the alias {alias!r} on {term!r}"
        try:
            mons = expr.parse_element(term, named).monomials()
        except ParseError as exc:
            raise IntegrityError(f"{fault}: {exc}") from None
        code = model.dgca.key(mons[0]) if len(mons) == 1 else None
        gen = next(
            (g for g, dg in model.dgca.d_codes() if any(t == code for t, _, _ in dg)), None
        )
        if gen is None:
            raise IntegrityError(f"{fault}: no differential has that term")
        del named[mapping.get(gen.name, gen.name)]
        if alias in named:
            raise IntegrityError(f"{fault}: that name is already in use")
        mapping[gen.name] = alias
        named[alias] = gen
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
        aliases=(("k12", "b1*b2"), ("k13", "b1*b3"), ("k23", "b2*b3")),
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
        aliases=_FATWEDGE_ALIASES,
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
    model = model.rename(_aliases(fixture, model))
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
