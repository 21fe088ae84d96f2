"""Finitely presented graded-commutative cohomology rings (A, 0).

A presentation is a list of generators (degrees >= 2, all stage 0), a list of
homogeneous relation elements in the free cover, and a truncation degree N_A
beyond which no statement is made.

`PresentedAlgebra` is a cochain complex in the sense of `dgca`: the free cover
with zero differential, whose degree-m coboundaries are the degree-m slice of
the relation ideal, spanned by all products monomial * relation of degree m.
A^m is its cohomology, a `dgca.CohomologySpace`.  Every cochain is a cocycle,
so the canonical basis of A^m consists of the monomials at the non-pivot
columns of the reduced row-echelon form of the ideal slice.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from . import expr
from .dgca import CohomologySpace, DecomposableSubspace
from .errors import InputError, TruncationError
from .gca import Element, Generator, Monomial, monomial_codes
# Not called here: perfbench/layertrace.py wraps monomial_basis under every
# module name bound to it and requires this binding.
from .gca import monomial_basis  # noqa: F401


class PresentedAlgebra:
    """A graded-commutative algebra presented by generators and relations."""

    def __init__(
        self,
        generators: Sequence[Generator],
        relations: Sequence[Element],
        truncation: int,
    ):
        self.generators = tuple(generators)
        self.relations = tuple(relations)
        self.truncation = truncation
        self._components: dict[int, CohomologySpace] = {}
        # the monomial codes of each degree over the sorted generators, built once
        self._sorted = sorted(self.generators, key=Generator.sort_key)
        self._codes: list[tuple[list[tuple], list[int]]] = []

    @classmethod
    def from_strings(
        cls,
        generators: Sequence[tuple[str, int]],
        relations: Sequence[str],
        truncation: int,
    ) -> "PresentedAlgebra":
        """Build from (name, degree) pairs and relation expressions."""
        seen: dict[str, Generator] = {}
        gens = []
        for i, (name, degree) in enumerate(generators):
            if not expr.IDENTIFIER.match(name):
                raise InputError(f"invalid generator name {name!r}")
            if name in seen:
                raise InputError(f"duplicate generator name {name!r}")
            g = Generator(name, degree, stage=0, index=i)
            seen[name] = g
            gens.append(g)
        rels = [expr.parse_element(text, seen) for text in relations]
        return cls(gens, rels, truncation)

    def generator_named(self, name: str) -> Generator | None:
        for g in self.generators:
            if g.name == name:
                return g
        return None

    def graded_component(self, m: int) -> CohomologySpace:
        """A^m, with the non-pivot monomials as its canonical basis."""
        if m > self.truncation:
            raise TruncationError(
                f"degree {m} exceeds the algebra truncation {self.truncation}"
            )
        cached = self._components.get(m)
        if cached is None:
            cached = CohomologySpace(self, m)
            self._components[m] = cached
        return cached

    def indecomposables(self, m: int) -> list[Monomial]:
        """Monomial lifts of a basis of A^m modulo decomposables."""
        comp = self.graded_component(m)
        pivots = set(DecomposableSubspace(self.graded_component, m).pivots())
        return [
            cls.representative.monomials()[0]
            for i, cls in enumerate(comp.classes)
            if i not in pivots
        ]

    def product(self, x: Element, y: Element) -> Element:
        """Cup product: multiply in the free cover, reduce modulo relations."""
        return self.reduce(x * y)

    def reduce(self, x: Element) -> Element:
        if x.is_zero:
            return x
        return self.graded_component(x.homogeneous_degree()).class_of(x).representative

    # --- the cochain-complex interface read by CohomologySpace --------------
    def keys(self, m: int) -> list[Monomial]:
        """The degree-m monomials, in the canonical order: a presented algebra
        keys its columns by monomial."""
        gens = self._sorted
        codes = monomial_codes(
            [g.degree for g in gens], [g.is_odd for g in gens], m, self._codes
        )
        return [Monomial(tuple([(gens[p], e) for p, e in code])) for code in codes]

    @staticmethod
    def d_basis(mon: Monomial):
        return ()

    @staticmethod
    def d(x: Element) -> Element:
        return Element.zero()

    def boundaries(self, m: int):
        """The degree-m slice of the relation ideal: cofactor * relation."""
        cofactors: dict[int, list[Monomial]] = {}  # one basis per relation degree
        for rel in self.relations:
            d = rel.homogeneous_degree()
            if d is None or d > m:
                continue
            if d not in cofactors:
                cofactors[d] = self.keys(m - d)
            for cof in cofactors[d]:
                yield (Element.from_monomial(cof) * rel).terms()

    @staticmethod
    def terms_of(x: Element):
        return x.terms()

    @staticmethod
    def element_of(terms: Mapping[Monomial, Fraction]) -> Element:
        return Element(terms)


def validate_presentation(algebra: PresentedAlgebra) -> list[str]:
    """Check the presentation; returns a list of problems (empty if valid)."""
    problems = []
    if algebra.truncation < 2:
        problems.append(f"truncation {algebra.truncation} is below 2")
    degrees = [g.degree for g in algebra.generators]
    for g in algebra.generators:
        if g.stage != 0:
            problems.append(f"generator {g.name!r} has nonzero stage {g.stage}")
        if g.degree < 2:
            problems.append(f"generator {g.name!r} has degree {g.degree} < 2")
    min_degree = min(degrees, default=0)
    for i, rel in enumerate(algebra.relations):
        label = f"relation #{i + 1} ({rel})"
        if rel.is_zero:
            problems.append(f"{label}: zero relation")
            continue
        if not rel.is_homogeneous:
            problems.append(
                f"{label}: inhomogeneous (degrees {sorted(rel.degrees())})"
            )
            continue
        d = rel.homogeneous_degree()
        if d < 2 * min_degree:
            problems.append(
                f"{label}: degree {d} lies in the indecomposable range "
                f"(below {2 * min_degree})"
            )
        if d > algebra.truncation:
            problems.append(
                f"{label}: degree {d} exceeds the truncation {algebra.truncation}"
            )
    return problems
