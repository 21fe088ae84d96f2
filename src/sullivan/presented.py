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

Like the other two complexes of `dgca`, it keys its columns by integer
codes: a monomial is a tuple of ``(position, exponent)`` pairs over the
generators in `Generator.sort_key` order, so the column order is the
canonical monomial order.  Each relation is encoded once, with integer
coefficients, and a row of the ideal slice merges a cofactor code with the
terms of one relation (`dgca.code_products`).  `Monomial` and `Element`
appear only where an element enters (``terms_of``) or a result leaves
(``element_of``).

The indecomposables Q(A)^m = A^m / (A^+ . A^+)^m need no product of
classes.  Let F^m be the degree-m part of the free cover, I^m the ideal
slice and W = I^m + F^m_(>=2).  Reduced modulo I^m, the decomposables lie on
the non-pivot columns of I^m, the columns of A's classes, so the pivots of W
are those of I^m and those of the decomposables in class coordinates.  In
the canonical order every degree-m generator sorts after every monomial of
word length >= 2, whose first factor has a lower degree.  So the RREF of W
has a unit row at every column of word length >= 2, and its other rows are
the RREF of the linear parts of I^m.  A cofactor of positive degree adds no
linear term, so those are the linear parts of the degree-m relations.  Hence
the classes of the generators off the pivots of those linear parts are a
basis of Q(A)^m (`indecomposables`).
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Mapping, Sequence

from . import expr
from .dgca import CohomologySpace, code_products
from .errors import InputError, TruncationError
from .gca import Element, Generator, Monomial, monomial_codes
from .linalg import RowSpace
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
        # code tables over the sorted generators, and the codes of each degree
        self._sorted = sorted(self.generators, key=Generator.sort_key)
        self._position = {g: p for p, g in enumerate(self._sorted)}
        self._degree = [g.degree for g in self._sorted]
        self._odd = [g.is_odd for g in self._sorted]
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

    def graded_component(self, m: int) -> CohomologySpace:
        """A^m, with the non-pivot monomials as its canonical basis."""
        self._check_degree(m)
        cached = self._components.get(m)
        if cached is None:
            cached = CohomologySpace(self, m)
            cached.cochains = weakref.proxy(self)  # see dgca.CohomologySpace
            self._components[m] = cached
        return cached

    def indecomposables(self, m: int) -> list[Generator]:
        """The degree-m generators whose classes are a basis of Q(A)^m.

        They are the generators off the pivots of the linear parts of the
        degree-m relations, in position order; see the module docstring.
        """
        self._check_degree(m)
        linear = RowSpace(
            {code[0][0]: c for code, _, c in terms if len(code) == 1 and code[0][1] == 1}
            for degree, terms in self._relation_codes
            if degree == m
        )
        pivots = set(linear.pivots())
        return [g for p, g in enumerate(self._sorted) if g.degree == m and p not in pivots]

    def _check_degree(self, m: int):
        if m > self.truncation:
            raise TruncationError(
                f"degree {m} exceeds the algebra truncation {self.truncation}"
            )

    def product(self, x: Element, y: Element) -> Element:
        """Cup product: multiply in the free cover, reduce modulo relations."""
        return self.reduce(x * y)

    def reduce(self, x: Element) -> Element:
        if x.is_zero:
            return x
        return self.graded_component(x.homogeneous_degree()).class_of(x).representative

    # --- the cochain-complex interface read by CohomologySpace --------------
    def keys(self, m: int) -> list[tuple]:
        """The codes of the degree-m monomials, in the canonical monomial order.

        A position indexes the sorted generators; see `gca.monomial_codes`.
        """
        return monomial_codes(self._degree, self._odd, m, self._codes)

    @staticmethod
    def d_basis(code: tuple):
        return ()

    @staticmethod
    def d(x: Element) -> Element:
        return Element.zero()

    def boundaries(self, m: int):
        """The degree-m slice of the relation ideal: cofactor * relation, code-keyed.

        Each cofactor code is merged with the terms of the relation
        (`dgca.code_products`).  The coefficients of one relation are scaled
        to integers, which scales each of its rows by one factor and leaves
        the span, and so the reduced row-echelon form, as it was.
        """
        odd = self._odd
        for degree, terms in self._relation_codes:
            if degree > m:
                continue
            for cofactor in self.keys(m - degree):
                yield code_products(terms, cofactor, [p for p, _ in cofactor if odd[p]])

    @cached_property
    def _relation_codes(self) -> list[tuple[int, tuple]]:
        """Each nonzero relation as its degree and its (code, odd positions,
        integer coefficient) triples."""
        position, odd = self._position, self._odd
        out = []
        for rel in self.relations:
            degree = rel.homogeneous_degree()
            if degree is None:
                continue
            scale = lcm(*[c.denominator for _, c in rel.terms()])
            triples = []
            for mon, c in rel.terms():
                code = tuple([(position[g], e) for g, e in mon.powers])
                odds = tuple([p for p, _ in code if odd[p]])
                triples.append((code, odds, c.numerator * (scale // c.denominator)))
            out.append((degree, tuple(triples)))
        return out

    def terms_of(self, x: Element):
        """The terms of an element, code-keyed.

        A generator outside the algebra gets the position None, so a term
        holding one matches no column.
        """
        position = self._position
        return [
            (tuple([(position.get(g), e) for g, e in mon.powers]), c) for mon, c in x.terms()
        ]

    def element_of(self, terms: Mapping[tuple, Fraction]) -> Element:
        """The element with these code-keyed terms."""
        gens = self._sorted
        return Element(
            {Monomial(tuple([(gens[p], e) for p, e in code])): c for code, c in terms.items()}
        )


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
