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

So `PresentedAlgebra` is a `dgca.FreeDGCA` on its generators with an empty
differential, and it overrides only ``boundaries``.  Everything else is the
free complex's: the code and parity tables, ``keys``, ``terms_of``,
``element_of`` and the spaces of its cohomology, with `graded_component`
bound to `FreeDGCA.cohomology`.  A monomial is a tuple of ``(position, exponent)``
pairs over the generators in `Generator.sort_key` order, so the column order
is the canonical monomial order.  Each relation is encoded once, as (code,
integer coefficient) pairs, the form in which a `FreeDGCA` keeps d(g), and a
row of the ideal slice merges a cofactor code with the terms of one relation,
with the Koszul sign read off the parity table (`dgca.code_products`).

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

A is graded by its relations.  Let L in Q^k, k the number of generators, be
spanned by the differences of the exponent vectors of two terms of one
relation, and take a basis of the functionals on Q^k that vanish on L (one
`linalg.RowSpace.kernel`).  Each relation is homogeneous under them, and so
is the ideal and A.  For a wedge of spheres, whose relations are monomials, L
= 0 and the grading is Z^k, the exponent vector itself; for a generic
quadratic presentation it is the letter count.  `_grades` packs the values of
the functionals on each generator into one int, in a balanced base
2 F N_A + 1, where F bounds the values on the generators and N_A is A's
truncation, so that a code's grade is sum(e * grade of p) over its (p, e)
pairs.  The packing is linear in the exponents, so whatever the base, d
preserves it wherever it preserves the grading.  The base keeps two distinct
grades apart: every generator of degree d of A or of its minimal model weighs
at most d - 1 letters of A (a kill generator the letters of a term of its
d(g), of degree d + 1 and at least two factors), so a functional's value on
a code of degree D <= N_A is at most F (D - 1) in size.  `minimal_model`
seeds the model's grade table with it.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Sequence

from . import expr
from .dgca import FreeDGCA, code_products
from .errors import InputError, TruncationError
from .gca import Element, Generator
from .linalg import RowSpace, add_scaled
# Not called here: perfbench/layertrace.py wraps monomial_basis under every
# module name bound to it and requires this binding.
from .gca import monomial_basis  # noqa: F401


class PresentedAlgebra(FreeDGCA):
    """A graded-commutative algebra presented by generators and relations.

    It is the `FreeDGCA` on its generators with zero differential, and only
    its coboundaries, the ideal slices, are its own.  ``generators`` keeps
    the input order; ``gens``, inherited, is the sorted order of the code
    positions.
    """

    def __init__(
        self,
        generators: Sequence[Generator],
        relations: Sequence[Element],
        truncation: int,
    ):
        self.generators = tuple(generators)
        super().__init__(self.generators, {}, truncation)
        self.relations = tuple(relations)
        # A^m by degree, the spaces the complex keeps; perfbench/layertrace.py
        # counts its cache hits here
        self._components = self._spaces

    @classmethod
    def from_strings(
        cls,
        generators: Sequence[tuple[str, int]],
        relations: Sequence[str],
        truncation: int,
        lines: Sequence[int] | None = None,
    ) -> "PresentedAlgebra":
        """Build from (name, degree) pairs and relation expressions, given at input ``lines``."""
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
        lines = lines or [None] * len(relations)
        rels = [expr.parse_element(text, seen, line) for text, line in zip(relations, lines)]
        return cls(gens, rels, truncation)

    # A^m, with the non-pivot monomials as its canonical basis.  Bound here,
    # not forwarded, so that perfbench/layertrace.py can wrap it by this name.
    graded_component = FreeDGCA.cohomology

    def indecomposables(self, m: int) -> list[Generator]:
        """The degree-m generators whose classes are a basis of Q(A)^m.

        They are the generators off the pivots of the linear parts of the
        degree-m relations, in position order; see the module docstring.
        """
        if m > self.truncation:
            raise TruncationError(
                f"degree {m} exceeds the algebra truncation {self.truncation}"
            )
        linear = RowSpace(
            {code[0][0]: c for code, c in terms if len(code) == 1 and code[0][1] == 1}
            for degree, terms in self._relation_codes
            if degree == m
        )
        pivots = set(linear.pivots())
        return [g for p, g in enumerate(self.gens) if g.degree == m and p not in pivots]

    def product(self, x: Element, y: Element) -> Element:
        """Cup product: multiply in the free cover, reduce modulo relations."""
        return self.reduce(x * y)

    def reduce(self, x: Element) -> Element:
        if x.is_zero:
            return x
        space = self.graded_component(x.homogeneous_degree())
        reduced = space.coboundaries.reduce(space.vector_of(x))
        return self.element_of({space.keys[i]: c for i, c in reduced.items()})

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
                yield code_products(terms, cofactor, [p for p, _ in cofactor if odd[p]], odd)

    @cached_property
    def _relation_codes(self) -> list[tuple[int, tuple]]:
        """Each nonzero relation as its degree and its (code, integer coefficient) pairs."""
        out = []
        for rel in self.relations:
            degree = rel.homogeneous_degree()
            if degree is None:
                continue
            scale = lcm(*[c.denominator for _, c in rel.terms()])
            terms = tuple(
                (self.key(mon), c.numerator * (scale // c.denominator)) for mon, c in rel.terms()
            )
            out.append((degree, terms))
        return out

    @cached_property
    def _grades(self) -> list[int]:
        """A's grading: the grade of each generator by position, packed into one int.

        See the module docstring.  The functionals come from one kernel, each
        scaled to integer values.
        """
        k = len(self.gens)
        differences = []
        for _, terms in self._relation_codes:
            first = dict(terms[0][0])
            differences += [add_scaled(dict(code), -1, first) for code, _ in terms[1:]]
        functionals = []
        for f in RowSpace(differences).kernel(k):
            scale = lcm(*[v.denominator for v in f.values() if type(v) is not int])
            functionals.append({p: int(v * scale) for p, v in f.items()})
        bound = max([abs(v) for f in functionals for v in f.values()], default=1)
        base = 2 * bound * self.truncation + 1
        grades = [0] * k
        for j, f in enumerate(functionals):
            for p, v in f.items():
                grades[p] += v * base**j
        return grades


def validate_presentation(algebra: PresentedAlgebra) -> list[str]:
    """Check the presentation; returns a list of problems (empty if valid)."""
    problems = []
    if algebra.truncation < 2:
        problems.append(f"truncation {algebra.truncation} is below 2")
    for g in algebra.generators:
        if g.stage != 0:
            problems.append(f"generator {g.name!r} has nonzero stage {g.stage}")
    min_degree = min([g.degree for g in algebra.generators], default=0)
    for i, rel in enumerate(algebra.relations):
        found = []
        rel_degrees = rel.degrees()
        if not rel_degrees:
            found.append("zero relation")
        elif len(rel_degrees) > 1:
            found.append(f"inhomogeneous (degrees {sorted(rel_degrees)})")
        else:
            (d,) = rel_degrees
            if d < 2 * min_degree:
                found.append(
                    f"degree {d} lies in the indecomposable range (below {2 * min_degree})"
                )
            if d > algebra.truncation:
                found.append(f"degree {d} exceeds the truncation {algebra.truncation}")
        # the relation is printed only when it has a problem to report
        problems += [f"relation #{i + 1} ({rel}): {problem}" for problem in found]
    return problems
