"""The cell-attachment model: Lambda(V) plus one exterior class u.

Attaching an n-cell along a functional alpha on the degree-(n-1) generators
yields the complex whose underlying space is Lambda(V) (+) Q.u with

    u^2 = 0,   u . x = 0 for every positive-degree x,
    d(u) = 0,  d(v) = d_model(v) + alpha(v) u   on generators v.

On monomials of word length >= 2 the twisted differential agrees with the
model differential, because the u-contributions are annihilated by the
product rules.  The model's d is minimal, so no d(v) has a linear part for
alpha to pair with, and d_tw^2 = 0 exactly when d^2 = 0.  The complex is not
free, so elements are represented as an explicit pair (body in Lambda(V),
u-coefficient).

So d_tw^2 = 0 is checked on the base model, and only where its d is data.
A model from `minimal_model.build_minimal_model` is closed by construction:
its stage-0 lifts have d = 0, and every later d(g) is a cocycle its kill
step vouched for.  That holds for its renamed copies too, and for the models
of even mode.  A base whose complex took a nonzero d as data, through
`FreeDGCA(...)`, `extend` or `extend_codes` without ``kills``, has
``d_is_data`` set and is checked when its attachment is made.

The twisted complex equals the base model in every degree but n - 1 and n,
so its cohomology is read off the base model's, with no elimination:
`FreeDGCA.cohomology` keeps the spaces and refuses a degree beyond the
truncation, and `AttachmentModel._space` derives each one.  d_tw^2 = 0
makes alpha vanish on the coboundaries of degree n - 1 (a product has no
linear part to pair with), so alpha is a functional on H^(n-1).

* m not in {n - 1, n}: H^m has the base model's class rows and complement.
* m = n - 1: B is unchanged and Z_tw = {z in Z_base : alpha(z) = 0}.  With
  a_i = alpha(c_i) on the base class rows c_i and j the last i with a_i != 0,
  the RREF of ker(a) in class coordinates has the rows e_i - (a_i / a_j) e_j,
  i != j, so the class rows are c_i - (a_i / a_j) c_j, and the complement
  gains the pivot column of c_j.  With no such j nothing changes.
* m = n: Z_tw = Z_base (+) Q.u, and B_tw is d_tw of the twisted complement
  of degree n - 1, with no dependent row.  If alpha is nonzero on H^(n-1),
  u = d_tw(z) for a cocycle z, so u is a coboundary pivot and [u] = 0; the
  class rows are the base rows.  Otherwise B_tw projects isomorphically onto
  B_base, u is no pivot, and the class rows are the base rows and u.
"""

from __future__ import annotations

import weakref
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .dgca import CohomologyClass, CohomologySpace, FreeDGCA, decomposition
from .errors import InputError, IntegrityError, TruncationError
from .gca import Element, Generator, Monomial
from .linalg import add_scaled
# Not called here: perfbench/layertrace.py wraps solve_in_span under every
# module name bound to it and requires this binding.
from .linalg import solve_in_span  # noqa: F401
from .minimal_model import BigradedModel

_ZERO = Fraction(0)
_ONE = Fraction(1)
# The basis cochain u, last in degree n.  Class representatives, and so every
# printed witness, depend on that column order.
_U = "u"


def _degree_mismatch(name: str, degree: int, n: int) -> InputError:
    return InputError(
        f"alpha is keyed on {name!r} of degree {degree}; "
        f"the {n}-cell pairs only with degree {n - 1}"
    )


@dataclass(frozen=True)
class AlphaFunctional:
    """A functional on the degree-(n-1) generators: the attaching data.

    ``coefficients`` holds the nonzero values, keyed by generator.  For
    n == 2 the zero functional is forced (the attachment is a wedge) and
    ``coerced`` records that this happened.
    """

    n: int
    coefficients: tuple[tuple[Generator, Fraction], ...]
    coerced: bool = False

    @classmethod
    def build(
        cls,
        model: BigradedModel,
        n: int,
        pairs: Sequence[tuple[str, Fraction | int | str]],
    ) -> "AlphaFunctional":
        """Resolve (generator name, coefficient) pairs against a model."""
        if n < 2:
            raise InputError(f"cell dimension {n} is below 2")
        if n == 2:
            return cls(2, (), coerced=bool(pairs))
        by_name = {g.name: g for g in model.generators}
        unknown = [name for name, _ in pairs if name not in by_name]
        if unknown:
            raise InputError(
                "alpha names not found in the model: " + ", ".join(repr(u) for u in unknown)
            )
        resolved: dict[Generator, Fraction] = {}
        for name, raw in pairs:
            g = by_name[name]
            if g.degree != n - 1:
                raise _degree_mismatch(name, g.degree, n)
            resolved[g] = resolved.get(g, _ZERO) + Fraction(raw)
        coeffs = tuple(
            sorted(
                ((g, c) for g, c in resolved.items() if c),
                key=lambda p: p[0].sort_key(),
            )
        )
        return cls(n, coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def value(self, gen: Generator) -> Fraction:
        for g, c in self.coefficients:
            if g == gen:
                return c
        return _ZERO

    def support(self) -> list[Generator]:
        return [g for g, _ in self.coefficients]


@dataclass(frozen=True)
class AttachmentElement:
    """An element of the attachment complex, a body in Lambda(V) plus c.u: a record."""

    body: Element
    u: Fraction = _ZERO

    @property
    def is_zero(self) -> bool:
        return self.body.is_zero and not self.u

    def __str__(self):
        if self.is_zero:
            return "0"
        if not self.u:
            return str(self.body)
        u_text = "u" if self.u == 1 else ("-u" if self.u == -1 else f"{self.u}*u")
        if self.body.is_zero:
            return u_text
        if u_text.startswith("-"):
            return f"{self.body} - {u_text[1:]}"
        return f"{self.body} + {u_text}"


class AttachmentModel:
    """The twisted complex for one n-cell attachment on a bigraded model.

    As a cochain complex it is the base model's complex with u appended as
    the last basis cochain of degree n, read through the interface of `dgca`
    (the parity table ``_odd`` is the base's).  Its column keys are the base
    model's codes, and u for itself.

    A base whose d is data (``base.dgca.d_is_data``) is checked for d^2 = 0
    here, and refused with an `IntegrityError`; a built base is closed by
    construction and is not checked again (see the module docstring).
    """

    def __init__(self, base: BigradedModel, alpha: AlphaFunctional):
        self.base = base
        self.alpha = alpha
        self.n = alpha.n
        self.truncation = base.truncation
        if self.n > self.truncation:
            raise TruncationError(
                f"the {self.n}-cell needs the model through degree {self.n}; "
                f"it is truncated at {self.truncation}"
            )
        known = set(base.generators)
        for g in alpha.support():
            if g not in known:
                raise InputError(f"alpha references {g.name!r}, not a model generator")
            if g.degree != self.n - 1:
                raise _degree_mismatch(g.name, g.degree, self.n)
        self._alpha_on_keys = {base.dgca.key(Monomial.of(g)): c for g, c in alpha.coefficients}
        self._odd = base.dgca._odd  # the parity table; u is no code and has no position
        # degree m -> H^m, kept by `cohomology`
        self._spaces: dict[int, CohomologySpace] = {}
        self._u_class: CohomologyClass | None = None
        if base.dgca.d_is_data:
            bad = self.verify_d_squared()
            if bad is not None:
                raise IntegrityError(f"twisted differential does not square to zero at {bad.name}")

    # --- complex structure -------------------------------------------------
    def keys(self, m: int) -> list:
        """Degree-m column keys: the base model's codes, then u in degree n."""
        keys = self.base.dgca.keys(m)
        return keys + [_U] if m == self.n else keys

    def d_basis(self, key):
        """d of the basis cochain with this key, as (key, coefficient) pairs:
        the terms of d(b) in the base model, plus alpha(b) u."""
        if key is _U:
            return ()
        terms = self.base.dgca.d_basis(key)
        c = self._alpha_on_keys.get(key)
        return [*terms, (_U, c)] if c else terms

    def terms_of(self, x: AttachmentElement) -> list:
        terms = self.base.dgca.terms_of(x.body)
        if x.u:
            terms.append((_U, x.u))
        return terms

    def element_of(self, terms: Mapping) -> AttachmentElement:
        """The element with these key-keyed terms."""
        body = self.base.dgca.element_of({k: c for k, c in terms.items() if k is not _U})
        return AttachmentElement(body, terms.get(_U, _ZERO))

    def boundaries(self, m: int):
        """A spanning set of the degree-m coboundaries, key-keyed.

        The twist changes d only on the degree-(n - 1) generators, and d(u) =
        0, so off degree n these are the base model's coboundaries.  In degree
        n they are d_tw of the complement of the twisted H^(n - 1), a basis.
        """
        if m != self.n:
            return self.base.dgca.boundaries(m)
        return (self.d_basis(k) for k in self.cohomology(m - 1).complement)

    def verify_d_squared(self) -> Generator | None:
        """The first generator g with d_tw(d_tw g) != 0, or None.

        d_tw(d_tw g) = d(d g) + alpha(linear part of d g) u, and the base
        model's d is minimal, so no d(g) has a linear part for alpha to pair
        with: this is the base model's d^2 check.  `__init__` runs it on a
        base whose d is data; it checks any base when called.
        """
        bad = self.base.dgca.verify_d_squared()
        return None if bad is None else bad[0]

    # --- cohomology ---------------------------------------------------------
    # The free complex's refusal and per-degree store, over `_space`.  Bound
    # here, not forwarded, so that perfbench/layertrace.py can wrap it by this
    # name.
    cohomology = FreeDGCA.cohomology

    def _space(self, m: int) -> CohomologySpace:
        """H^m of the twisted complex, over the base model's class rows and complement.

        `cohomology` calls it when it keeps no space of degree m.  Outside
        degrees n - 1 and n it shares them as they are; see the module
        docstring for the facts used in those two.
        """
        base = self.base.dgca.cohomology(m)
        rows, complement = base._class_rows, base.complement
        if m == self.n - 1:
            keys, alpha = base.keys, self._alpha_on_keys
            values = [
                sum((alpha[keys[col]] * v for col, v in row.items() if keys[col] in alpha), _ZERO)
                for row in rows
            ]
            last = max((i for i, a in enumerate(values) if a), default=None)
            if last is not None:
                # the RREF of ker(alpha) in class coordinates: e_i - (a_i / a_last) e_last
                pivot_row, a_last = rows[last], values[last]
                rows = [
                    add_scaled(dict(row), -values[i] / a_last, pivot_row) if values[i] else row
                    for i, row in enumerate(rows)
                    if i != last
                ]
                complement = list(complement)
                insort(complement, keys[min(pivot_row)])
        elif m == self.n:
            if self.cohomology(m - 1).dimension == self.base.dgca.cohomology(m - 1).dimension:
                # alpha vanishes on H^(n - 1), so u is no coboundary pivot
                rows = [*rows, {len(base.keys): _ONE}]
        # read through a proxy: see CohomologySpace
        return CohomologySpace.from_class_rows(weakref.proxy(self), m, rows, complement)

    def u_class(self) -> CohomologyClass:
        """The class of u in degree n, found once; zero exactly when u became exact."""
        if self._u_class is None:
            self._u_class = self.cohomology(self.n).class_of(
                AttachmentElement(Element.zero(), _ONE)
            )
        return self._u_class

    def u_body_representative(self) -> Element | None:
        """A representative of [u] inside Lambda(V), when one exists.

        Subtracting a coboundary that contains u trades it for body terms;
        the shortest such trade is returned.  If no coboundary touches u,
        the class is genuinely new and None is returned.
        """
        space = self.cohomology(self.n)
        u = space.index[_U]
        # the first of the shortest stored rows through u; only it is converted
        best = min(
            (row for row in space.coboundaries.rows() if u in row), key=len, default=None
        )
        if best is None:
            return None
        c = best[u]
        return self.base.dgca.element_of(
            {space.keys[i]: Fraction(-v, c) for i, v in best.items() if i != u}
        )

    def u_decomposable(self) -> tuple[bool, list | None]:
        """Is [u] a combination of products of positive-degree classes?"""
        u = self.u_class()
        if u.is_zero:
            raise InputError("u is zero in cohomology; decomposability is undefined")
        witness = decomposition(self.cohomology, u)
        return witness is not None, witness

