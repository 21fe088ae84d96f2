"""Free differential graded-commutative algebras and their cohomology.

A `FreeDGCA` is a free graded-commutative algebra with a degree +1
differential given on generators and extended by the Leibniz rule.  All
statements about degree m require generator data through degree m and
differential targets through m + 1; operations refuse to answer beyond the
declared truncation instead of silently truncating.

Cohomology in each degree is computed by exact linear algebra: cocycles as a
kernel, coboundaries as a row space, and canonical class representatives
fixed by the reduced row-echelon form.  `CohomologySpace` reads its complex
through a small interface, so the cell-attachment complex shares it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, IntegrityError, TruncationError
from .gca import Element, Generator, Monomial, monomial_basis
from .linalg import RowSpace, solve_in_span

_ZERO = Fraction(0)


class FreeDGCA:
    """Free graded-commutative algebra with a differential on generators."""

    def __init__(
        self,
        gens: Sequence[Generator],
        d_on_gens: Mapping[Generator, Element],
        truncation: int,
    ):
        self.gens = tuple(sorted(gens, key=Generator.sort_key))
        if len(set(self.gens)) != len(self.gens):
            raise InputError("duplicate generators")
        self.truncation = truncation
        self.d_on_gens: dict[Generator, Element] = {}
        known = set(self.gens)
        for g in self.gens:
            dg = d_on_gens.get(g, Element.zero())
            if not dg.is_zero:
                if dg.homogeneous_degree() != g.degree + 1:
                    raise InputError(
                        f"d({g.name}) must be homogeneous of degree {g.degree + 1}"
                    )
                for mon in dg.monomials():
                    for h in mon.generators():
                        if h not in known:
                            raise InputError(
                                f"d({g.name}) uses the unknown generator {h.name!r}"
                            )
            self.d_on_gens[g] = dg
        self._basis_cache: dict[int, list[Monomial]] = {}
        self._cohomology_cache: dict[int, CohomologySpace] = {}

    # --- cochain spaces -------------------------------------------------
    def basis(self, m: int) -> list[Monomial]:
        """Monomial basis of the degree-m cochains (m <= truncation + 1)."""
        if m > self.truncation + 1:
            raise TruncationError(
                f"degree {m} data requested from a model truncated at {self.truncation}"
            )
        cached = self._basis_cache.get(m)
        if cached is None:
            cached = monomial_basis(self.gens, m)
            self._basis_cache[m] = cached
        return cached

    # --- differential ---------------------------------------------------
    def d(self, x: Element) -> Element:
        """Leibniz extension of the differential; input must be homogeneous."""
        if x.is_zero:
            return x
        degree = x.homogeneous_degree()
        if degree + 1 > self.truncation + 1:
            raise TruncationError(
                f"d of a degree-{degree} element exceeds the truncation {self.truncation}"
            )
        out = Element.zero()
        for mon, coeff in x.terms():
            out = out + coeff * self.d_monomial(mon)
        return out

    def d_monomial(self, mon: Monomial) -> Element:
        out = Element.zero()
        powers = mon.powers
        prefix_degree = 0
        for idx, (g, e) in enumerate(powers):
            dg = self.d_on_gens[g]
            if not dg.is_zero:
                sign = -1 if prefix_degree % 2 else 1
                prefix = Element.from_monomial(Monomial(powers[:idx]))
                rest_powers = powers[idx + 1 :]
                if e > 1:
                    rest_powers = ((g, e - 1),) + rest_powers
                rest = Element.from_monomial(
                    Monomial(tuple(sorted(rest_powers, key=lambda p: p[0].sort_key())))
                )
                out = out + (sign * e) * (prefix * dg * rest)
            prefix_degree += g.degree * e
        return out

    def verify_d_squared(self) -> tuple[Generator, Element] | None:
        """None when d*d kills every generator, else (generator, residue)."""
        for g in self.gens:
            dg = self.d_on_gens[g]
            if dg.is_zero or g.degree + 2 > self.truncation + 2:
                continue
            residue = Element.zero()
            for mon, coeff in dg.terms():
                residue = residue + coeff * self.d_monomial(mon)
            if not residue.is_zero:
                return g, residue
        return None

    def minimality_violations(self) -> list[Generator]:
        """Generators whose differential has a word-length-1 part."""
        bad = []
        for g in self.gens:
            dg = self.d_on_gens[g]
            if any(mon.word_length < 2 for mon in dg.monomials()):
                bad.append(g)
        return bad

    # --- cohomology -------------------------------------------------------
    def cohomology(self, m: int) -> "CohomologySpace":
        if m > self.truncation:
            raise TruncationError(
                f"cohomology in degree {m} exceeds the truncation {self.truncation}"
            )
        cached = self._cohomology_cache.get(m)
        if cached is None:
            cached = CohomologySpace(self, m)
            self._cohomology_cache[m] = cached
        return cached

    def class_product(self, c1: "CohomologyClass", c2: "CohomologyClass") -> "CohomologyClass":
        product = c1.representative * c2.representative
        return self.cohomology(c1.degree + c2.degree).class_of(product)

    def decomposable_subspace(self, m: int) -> "DecomposableSubspace":
        return DecomposableSubspace(self, m)

    # --- the cochain-complex interface read by CohomologySpace --------------
    def d_basis(self, mon: Monomial):
        """d of one basis monomial, as (monomial, coefficient) pairs."""
        return self.d_monomial(mon).terms()

    @staticmethod
    def terms_of(x: Element):
        return x.terms()

    @staticmethod
    def element_of(terms: Mapping[Monomial, Fraction]) -> Element:
        return Element(terms)


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class with its canonical coordinates.

    The representative is an element of the complex the class came from: an
    `Element`, or an `AttachmentElement` for a cell-attachment complex.
    """

    degree: int
    representative: object
    coordinates: tuple[Fraction, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.coordinates)

    def __str__(self):
        return f"[{self.representative}]"


class CohomologySpace:
    """H^m of a cochain complex, with canonical representatives.

    The complex is read through ``basis(m)`` (the degree-m basis cochains,
    in a fixed order), ``d_basis(b)`` (d of one basis cochain as (cochain,
    coefficient) pairs), ``terms_of(x)`` and ``element_of(terms)`` (an
    element as (cochain, coefficient) pairs and back) and ``d(x)``.  Class
    representatives are fixed by the reduced row-echelon forms over that
    basis order.
    """

    def __init__(self, cochains, m: int):
        self.cochains = cochains
        self.degree = m
        source = cochains.basis(m)
        self.basis = source
        self.index = index = {b: i for i, b in enumerate(source)}
        target_index = {b: i for i, b in enumerate(cochains.basis(m + 1))}
        d_basis = cochains.d_basis

        # cocycles: kernel of d on the degree-m cochains
        constraint_rows: dict[int, dict[int, Fraction]] = {}
        for j, b in enumerate(source):
            for t, c in d_basis(b):
                constraint_rows.setdefault(target_index[t], {})[j] = c
        constraints = RowSpace()
        for row in constraint_rows.values():
            constraints.insert(row)
        cocycles = constraints.kernel(len(source))

        # coboundaries: image of d from degree m - 1
        self.coboundaries = RowSpace()
        if m >= 1:
            for b in cochains.basis(m - 1):
                image = {index[t]: c for t, c in d_basis(b)}
                if image:
                    self.coboundaries.insert(image)

        classes = RowSpace()
        for z in cocycles:
            classes.insert(self.coboundaries.reduce(z))
        self._class_rows = classes.fraction_rows()
        self._class_pivots = classes.pivots()
        self.classes = [
            CohomologyClass(m, self._element(row), self._unit_coords(i))
            for i, row in enumerate(self._class_rows)
        ]

    @property
    def dimension(self) -> int:
        return len(self._class_rows)

    def _element(self, vec: Mapping[int, Fraction]):
        return self.cochains.element_of({self.basis[i]: c for i, c in vec.items()})

    def _unit_coords(self, i: int) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(1) if j == i else _ZERO for j in range(len(self._class_rows))
        )

    def vector_of(self, element) -> dict[int, Fraction]:
        vec: dict[int, Fraction] = {}
        for b, c in self.cochains.terms_of(element):
            i = self.index.get(b)
            if i is None:
                raise InputError(f"{b} is not a degree-{self.degree} cochain")
            vec[i] = c
        return vec

    def class_of(self, element) -> CohomologyClass:
        """The class of a cocycle, in canonical coordinates."""
        vec = self.vector_of(element)
        if not self.cochains.d(element).is_zero:
            raise InputError("element is not a cocycle")
        reduced = self.coboundaries.reduce(vec)
        coords = [_ZERO] * len(self._class_rows)
        residual = dict(reduced)
        for i, (p, row) in enumerate(zip(self._class_pivots, self._class_rows)):
            c = residual.get(p)
            if not c:
                continue
            coords[i] = c
            for col, v in row.items():
                w = residual.get(col, _ZERO) - c * v
                if w:
                    residual[col] = w
                else:
                    residual.pop(col, None)
        if residual:
            raise IntegrityError("cocycle does not reduce into the class basis")
        return CohomologyClass(self.degree, self._element(reduced), tuple(coords))

    def zero_class(self) -> CohomologyClass:
        zeros = tuple([_ZERO] * len(self._class_rows))
        return CohomologyClass(self.degree, self.cochains.element_of({}), zeros)


class DecomposableSubspace:
    """Span of all products of positive-degree classes inside H^m.

    ``cochains`` is any complex `CohomologySpace` reads that also has a
    ``cohomology(m)`` cache and multiplicative representatives.
    """

    def __init__(self, cochains, m: int):
        self.degree = m
        self._space = RowSpace()
        self._products: list[tuple[tuple[Fraction, ...], CohomologyClass, CohomologyClass]] = []
        target = cochains.cohomology(m)
        for p in range(1, m // 2 + 1):
            left = cochains.cohomology(p).classes
            right = cochains.cohomology(m - p).classes
            for c1 in left:
                for c2 in right:
                    product = target.class_of(c1.representative * c2.representative)
                    if product.is_zero:
                        continue
                    self._products.append((product.coordinates, c1, c2))
                    self._space.insert(
                        {i: c for i, c in enumerate(product.coordinates) if c}
                    )

    @property
    def dimension(self) -> int:
        return self._space.rank

    def contains(self, cls: CohomologyClass) -> bool:
        return self._space.contains(
            {i: c for i, c in enumerate(cls.coordinates) if c}
        )

    def witness(
        self, cls: CohomologyClass
    ) -> list[tuple[Fraction, CohomologyClass, CohomologyClass]] | None:
        """Express a class as a combination of products, if possible."""
        if not self._products:
            return [] if cls.is_zero else None
        coeffs = solve_in_span([vec for vec, _, _ in self._products], cls.coordinates)
        if coeffs is None:
            return None
        return [
            (c, c1, c2)
            for c, (_, c1, c2) in zip(coeffs, self._products)
            if c
        ]


def d_extend(dgca: FreeDGCA, x: Element) -> Element:
    return dgca.d(x)


def verify_d_squared(dgca: FreeDGCA):
    return dgca.verify_d_squared()


def cohomology(dgca: FreeDGCA, m: int) -> tuple[int, list[CohomologyClass]]:
    space = dgca.cohomology(m)
    return space.dimension, space.classes
