"""Job text: the input format, the naming rule, and the bundled fixtures.

A job is sectioned text (see the README for the grammar): an ``algebra:``
section, an optional ``names:`` section and ``attach:`` sections.
`load_job` parses it and builds its algebra, and every command runs the
`Job` it returns.  A bundled fixture is such a text, so ``--fixture ID``
and ``--input`` on the fixture's text take the same route.

A job with a ``names:`` section names its model's generators as the usual
hand computations name them:

- the b-rule (`alias_monomial_targets`): a stage-1 generator whose
  differential is g^2 or g*h is named b + suffix(g), or b + suffix(g) +
  suffix(h), as in b1 and b12, unless that name is taken;
- then each ``name ALIAS TERM`` entry, in order, names the first generator,
  in generator order, whose differential has a nonzero coefficient on the
  term.  The term is written in the names given so far, and an entry
  replaces a b-name; an alias that another generator already has, or that
  is not an identifier, is refused.

Anything else keeps its machine name, as every generator of a job without
the section does.  A fault in a user's text is an `InputError`; in a
fixture's text it is an `IntegrityError` that names the fixture.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from fractions import Fraction

from . import expr
from .attachment import AlphaFunctional
from .errors import InputError, IntegrityError, ParseError
from .minimal_model import BigradedModel, build_minimal_model
from .presented import PresentedAlgebra


# ---------------------------------------------------------------------------
# the input format


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
    # the (alias, term, line) entries of a names: section; None without one
    names: list[tuple[str, str, int]] | None = None


def _integer(word: str, what: str, lineno: int) -> int:
    """An optionally signed run of ASCII digits; `int` alone also takes
    ``2_0`` and non-ASCII digits."""
    if not expr.INTEGER.fullmatch(word):
        raise ParseError(f"bad {what} {word!r}", lineno)
    return expr.parse_integer(word, lineno)


def parse_job(text: str) -> JobSpec:
    """Parse the sectioned input format (``algebra:`` / ``names:`` / ``attach:``).

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
        if line == "names:":
            section = "names"
            spec.names = spec.names or []
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
        elif section == "names":
            if directive != "name":
                raise ParseError(f"unknown names directive {directive!r}", lineno)
            if len(words) < 3:
                raise ParseError("expected: name ALIAS TERM", lineno)
            spec.names.append((words[1], line.split(None, 2)[2], lineno))
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
                "content before a section header (expected 'algebra:', 'names:' or 'attach:')",
                lineno,
            )
    return spec


# ---------------------------------------------------------------------------
# the naming rule


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


def _aliases(model: BigradedModel, entries: list[tuple[str, str, int]]) -> dict[str, str]:
    """The rename map of a names: section: the b-rule, then its entries, each
    term matched by its code against the kept differentials, none decoded."""
    mapping = alias_monomial_targets(model)
    named = {mapping.get(g.name, g.name): g for g in model.generators}
    for alias, term, lineno in entries:
        fault = f"the alias {alias!r} on {term!r}"
        if not expr.IDENTIFIER.match(alias):
            raise ParseError(f"{fault}: not an identifier", lineno)
        try:
            mons = expr.parse_element(term, named).monomials()
        except ParseError as exc:
            raise ParseError(f"{fault}: {exc}", lineno) from None
        code = model.dgca.key(mons[0]) if len(mons) == 1 else None
        gen = next(
            (g for g, dg in model.dgca.d_codes() if any(t == code for t, _, _ in dg)), None
        )
        if gen is None:
            raise ParseError(f"{fault}: no differential has that term", lineno)
        del named[mapping.get(gen.name, gen.name)]
        if alias in named:
            raise ParseError(f"{fault}: that name is already in use", lineno)
        mapping[gen.name] = alias
        named[alias] = gen
    return mapping


# ---------------------------------------------------------------------------
# the route every command takes


@contextlib.contextmanager
def _faults_of(fixture_id: str | None):
    """Report a fault of a fixture's text as an integrity error naming it."""
    try:
        yield
    except InputError as exc:
        if fixture_id is None:
            raise
        reason = exc.message if isinstance(exc, ParseError) else exc
        raise IntegrityError(f"fixture {fixture_id!r}: {reason}") from None


@dataclass
class Job:
    """A parsed job and its algebra; ``fixture_id`` marks a fixture's text."""

    spec: JobSpec
    algebra: PresentedAlgebra
    fixture_id: str | None = None

    def model(self) -> BigradedModel:
        """The model through the truncation, named by the names: section if any.

        The build validates the presentation, so a bad relation in a
        fixture's text is reported here, naming the fixture.
        """
        with _faults_of(self.fixture_id):
            model = build_minimal_model(self.algebra, self.spec.truncation)
            if self.spec.names is None:
                return model
            return model.rename(_aliases(model, self.spec.names))

    def attachment(self) -> tuple[BigradedModel, AlphaFunctional]:
        """The model and the attaching functional of the job's one attach section."""
        attaches = self.spec.attaches
        if not attaches:
            raise InputError("the job has no attachment (no attach: section)")
        if len(attaches) > 1:
            raise InputError("exactly one attach: section is required")
        [section] = attaches
        if section.cell is None:
            raise InputError("the attach section needs a 'cell N' line")
        model = self.model()
        with _faults_of(self.fixture_id):
            return model, AlphaFunctional.build(model, section.cell, section.pairs)


def load_job(
    text: str,
    truncation: int | None = None,
    fixture_id: str | None = None,
    default: int | None = None,
) -> Job:
    """Parse a job and build its algebra; ``truncation`` overrides the text's,
    and ``default`` stands in when neither gives one."""
    with _faults_of(fixture_id):
        spec = parse_job(text)
        if truncation is not None:
            spec.truncation = truncation
        elif spec.truncation is None:
            spec.truncation = default
        n = spec.truncation
        if n is None:
            raise InputError("no truncation given (use 'truncation N' or --truncation)")
        if n < 2:
            raise InputError(f"truncation {n} is below 2")
        if not spec.generators:
            raise InputError("A+ = 0; nothing to model")
        # the model through degree N reads the algebra through degree N + 1
        algebra = PresentedAlgebra.from_strings(
            spec.generators, spec.relations, n + 1, spec.relation_lines
        )
        for i, rel in enumerate(algebra.relations, 1):
            d = rel.homogeneous_degree() if rel.is_homogeneous else None
            if d is not None and d > n + 1:
                raise InputError(
                    f"invalid presentation: relation #{i} ({rel}): degree {d} exceeds "
                    f"N + 1 = {n + 1} for truncation N = {n}"
                )
    return Job(spec, algebra, fixture_id)


# ---------------------------------------------------------------------------
# the bundled fixtures


@dataclass(frozen=True)
class Fixture:
    """A bundled example: its job text, and what `examples` lists besides."""

    fixture_id: str
    description: str
    text: str
    expected_status: str | None = None
    # the half-degree k of its even-complex run, as `verdict --even K`
    even_half_degree: int | None = None

    @property
    def truncation(self) -> int:
        return parse_job(self.text).truncation

    @property
    def cell(self) -> int | None:
        attaches = parse_job(self.text).attaches
        return attaches[0].cell if attaches else None


_WEDGE3 = """\
algebra:
  gen a1 2
  gen a2 2
  gen a3 2
  rel a1^2
  rel a1*a2
  rel a1*a3
  rel a2^2
  rel a2*a3
  rel a3^2
"""

FIXTURES: dict[str, Fixture] = {
    fixture.fixture_id: fixture
    for fixture in (
        Fixture(
            "cp1",
            "the 2-sphere: one degree-2 class a with a^2 = 0",
            """\
algebra:
  gen a 2
  rel a^2
  truncation 4
names:          # the b-rule alone: db = a^2
""",
        ),
        Fixture(
            "cp2-attach",
            "a 4-cell attached to the 2-sphere along the relation class "
            "(db = a^2); the result has the cohomology of Q[a]/(a^3)",
            """\
algebra:
  gen a 2
  rel a^2
  truncation 4
names:          # the b-rule alone: db = a^2
attach:
  cell 4
  alpha b 1
""",
            expected_status="Formal",
        ),
        Fixture(
            "wedge3-s2",
            "wedge of three 2-spheres: three degree-2 classes, all products zero",
            _WEDGE3 + """\
  truncation 5
names:          # the b-rule alone: b1, b12, ...
""",
        ),
        Fixture(
            "wedge3-e6",
            "wedge of three 2-spheres with a 6-cell attached along the "
            "degree-5 class k12; the new top class is indecomposable",
            _WEDGE3 + """\
  truncation 6
names:
  name k12 b1*b2
  name k13 b1*b3
  name k23 b2*b3
attach:
  cell 6
  alpha k12 1
""",
            expected_status="NotFormal",
        ),
        Fixture(
            "fatwedge-e6",
            "wedge of three 2-spheres with the 4-skeleton of (S^2)^3, plus a "
            "6-cell pairing both a stage-1 and a stage-3 degree-5 class; u is "
            "decomposable but the attachment is not special",
            """\
algebra:
  gen a1 2
  gen a2 2
  gen a3 2
  gen x1 2
  gen x2 2
  gen x3 2
  rel a1^2
  rel a1*a2
  rel a1*a3
  rel a2^2
  rel a2*a3
  rel a3^2
  rel x1^2
  rel x2^2
  rel x3^2
  rel x1*x2*x3
  rel a1*x1
  rel a1*x2
  rel a1*x3
  rel a2*x1
  rel a2*x2
  rel a2*x3
  rel a3*x1
  rel a3*x2
  rel a3*x3
  truncation 6
names:
  name c11 a1^2
  name c12 a1*a2
  name c13 a1*a3
  name c22 a2^2
  name c23 a2*a3
  name c33 a3^2
  name w11 a1*x1
  name w12 a1*x2
  name w13 a1*x3
  name w21 a2*x1
  name w22 a2*x2
  name w23 a2*x3
  name w31 a3*x1
  name w32 a3*x2
  name w33 a3*x3
  name v1 x1^2
  name v2 x2^2
  name v3 x3^2
  name z x1*x2*x3
  name g12 c11*c12
attach:
  cell 6
  alpha z 1
  alpha g12 1
""",
            expected_status="Inconclusive",
        ),
        Fixture(
            "even-4k",
            "two degree-2 classes with one 4-cell attached along the product "
            "class (a Whitehead attachment); run in even-complex mode with "
            "k = 1, the result is S^2 x S^2",
            """\
algebra:
  gen a1 2
  gen a2 2
  truncation 4
attach:         # even mode names the skeleton by the b-rule
  cell 4
  alpha b12 1
""",
            expected_status="Formal",
            even_half_degree=1,
        ),
    )
}


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


@dataclass
class BuiltFixture:
    fixture: Fixture
    algebra: PresentedAlgebra
    model: BigradedModel
    alpha: AlphaFunctional | None


def build_fixture(fixture_id: str) -> BuiltFixture:
    """The fixture's job: its model and, outside even mode, its alpha, if any."""
    fixture = get_fixture(fixture_id)
    job = load_job(fixture.text, fixture_id=fixture_id)
    if not job.spec.attaches or fixture.even_half_degree is not None:
        return BuiltFixture(fixture, job.algebra, job.model(), None)
    return BuiltFixture(fixture, job.algebra, *job.attachment())
