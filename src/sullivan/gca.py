"""Free graded-commutative algebra kernel.

Generators carry a cohomological degree (>= 2, so everything is simply
connected), a lower-gradation stage, and a creation index.  Monomials are
kept sign-normalised with respect to the global generator order
``(degree, stage, index, name)``: sorting two odd factors past each other
contributes a factor of -1, and a repeated odd factor kills the monomial.
Elements are finite rational combinations of monomials.

>>> a = Generator("a", 2)
>>> b = Generator("b", 3, stage=1, index=1)
>>> sign, m = normalize_monomial([b, a, a])
>>> sign, str(m)
(1, 'a^2*b')
>>> normalize_monomial([b, b])
(0, None)
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Generator:
    """A free algebra generator; ``stage`` is its lower-gradation slot."""

    name: str
    degree: int
    stage: int = 0
    index: int = 0

    def __post_init__(self):
        if self.degree < 2:
            raise InputError(
                f"generator {self.name!r} has degree {self.degree}; "
                "degrees must be >= 2 (simply connected input)"
            )
        if self.stage < 0:
            raise InputError(f"generator {self.name!r} has negative stage")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def sort_key(self):
        return (self.degree, self.stage, self.index, self.name)


@dataclass(frozen=True)
class Monomial:
    """Sorted tuple of (generator, exponent) pairs; odd exponents are <= 1."""

    powers: tuple[tuple[Generator, int], ...]

    @classmethod
    def unit(cls) -> "Monomial":
        return cls(())

    @classmethod
    def of(cls, gen: Generator, exponent: int = 1) -> "Monomial":
        if exponent < 1:
            raise InputError("monomial exponents must be positive")
        if gen.is_odd and exponent > 1:
            raise InputError(f"odd generator {gen.name!r} squares to zero")
        return cls(((gen, exponent),))

    @property
    def degree(self) -> int:
        return sum(g.degree * e for g, e in self.powers)

    @property
    def word_length(self) -> int:
        return sum(e for _, e in self.powers)

    @property
    def is_unit(self) -> bool:
        return not self.powers

    def generators(self) -> list[Generator]:
        return [g for g, _ in self.powers]

    def max_stage(self) -> int:
        return max((g.stage for g, _ in self.powers), default=0)

    def sort_key(self):
        return tuple((g.sort_key(), e) for g, e in self.powers)

    def __str__(self):
        if not self.powers:
            return "1"
        parts = []
        for g, e in self.powers:
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts)


def normalize_monomial(factors: Sequence[Generator]) -> tuple[int, Monomial | None]:
    """Sort a factor list into a monomial, tracking the Koszul sign.

    Returns ``(sign, monomial)`` with sign in {1, -1}, or ``(0, None)`` when
    an odd generator repeats.
    """
    odds = [g for g in factors if g.is_odd]
    if len({g for g in odds}) != len(odds):
        return 0, None
    inversions = 0
    keys = [g.sort_key() for g in odds]
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            if keys[i] > keys[j]:
                inversions += 1
    counts: dict[Generator, int] = {}
    for g in factors:
        counts[g] = counts.get(g, 0) + 1
    powers = tuple(sorted(counts.items(), key=lambda p: p[0].sort_key()))
    return (-1 if inversions % 2 else 1), Monomial(powers)


def monomial_product(m1: Monomial, m2: Monomial) -> tuple[int, Monomial | None]:
    """Product of two normalised monomials: (sign, monomial) or (0, None)."""
    odds1 = [g for g, _ in m1.powers if g.is_odd]
    odds2 = [g for g, _ in m2.powers if g.is_odd]
    if odds1 and odds2:
        if set(odds1) & set(odds2):
            return 0, None
        inversions = 0
        keys2 = sorted(g.sort_key() for g in odds2)
        for g in odds1:
            k = g.sort_key()
            inversions += sum(1 for k2 in keys2 if k > k2)
        sign = -1 if inversions % 2 else 1
    else:
        sign = 1
    counts = dict(m1.powers)
    for g, e in m2.powers:
        counts[g] = counts.get(g, 0) + e
    powers = tuple(sorted(counts.items(), key=lambda p: p[0].sort_key()))
    return sign, Monomial(powers)


class Element:
    """A finite rational linear combination of monomials.

    Zero coefficients are purged eagerly, so structural equality is
    mathematical equality.  Instances are treated as immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Fraction | int] | None = None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            for mon, coeff in terms.items():
                c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
                if c:
                    data[mon] = c
        self._terms = data

    # --- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def one(cls) -> "Element":
        return cls({Monomial.unit(): _ONE})

    @classmethod
    def scalar(cls, c) -> "Element":
        return cls({Monomial.unit(): c})

    @classmethod
    def from_generator(cls, gen: Generator) -> "Element":
        return cls({Monomial.of(gen): _ONE})

    @classmethod
    def from_monomial(cls, mon: Monomial, coeff=1) -> "Element":
        return cls({mon: coeff})

    # --- inspection ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self):
        return self._terms.items()

    def monomials(self) -> list[Monomial]:
        return sorted(self._terms, key=Monomial.sort_key)

    def coefficient(self, mon: Monomial) -> Fraction:
        return self._terms.get(mon, _ZERO)

    def degrees(self) -> set[int]:
        return {mon.degree for mon in self._terms}

    @property
    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def homogeneous_degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; error when mixed."""
        degs = self.degrees()
        if not degs:
            return None
        if len(degs) > 1:
            raise InputError(f"element is not homogeneous (degrees {sorted(degs)})")
        return degs.pop()

    # --- arithmetic ---------------------------------------------------
    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        data = dict(self._terms)
        for mon, c in other._terms.items():
            s = data.get(mon, _ZERO) + c
            if s:
                data[mon] = s
            else:
                data.pop(mon, None)
        out = Element.__new__(Element)
        out._terms = data
        return out

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        out = Element.__new__(Element)
        out._terms = {m: -c for m, c in self._terms.items()}
        return out

    def __mul__(self, other):
        if isinstance(other, Element):
            data: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    sign, mon = monomial_product(m1, m2)
                    if sign == 0:
                        continue
                    s = data.get(mon, _ZERO) + sign * c1 * c2
                    if s:
                        data[mon] = s
                    else:
                        data.pop(mon, None)
            out = Element.__new__(Element)
            out._terms = data
            return out
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return Element.zero()
            out = Element.__new__(Element)
            out._terms = {m: x * c for m, x in self._terms.items()}
            return out
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"Element({self})"

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for mon in self.monomials():
            c = self._terms[mon]
            mag = -c if c < 0 else c
            if mon.is_unit:
                body = str(mag)
            elif mag == 1:
                body = str(mon)
            else:
                body = f"{mag}*{mon}"
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text


def monomial_basis(gens: Sequence[Generator], degree: int) -> list[Monomial]:
    """All monomials of the given degree, in the canonical monomial order."""
    ordered = sorted(gens, key=Generator.sort_key)
    codes = monomial_codes([g.degree for g in ordered], [g.is_odd for g in ordered], degree)
    return [Monomial(tuple([(ordered[p], e) for p, e in code])) for code in codes]


def monomial_codes(
    degrees: Sequence[int],
    odd: Sequence[bool],
    degree: int,
    table: list[tuple[list[tuple], list[int]]] | None = None,
) -> list[tuple]:
    """The codes of all monomials of the given degree, in increasing order.

    Position p stands for a generator of degree ``degrees[p]``, odd when
    ``odd[p]``; the degrees must not decrease.  A code is a tuple of
    ``(position, exponent)`` pairs with increasing positions.  When the
    positions follow `Generator.sort_key`, increasing code order is the
    canonical monomial order.

    The codes of degree r are built from those of every lower degree: a
    first factor (p, e) followed by each code of degree r - e * degrees[p]
    whose first position lies above p.  In a sorted list those codes form a
    suffix, so every degree comes out sorted.

    ``table`` lists, for degrees 0, 1, ... in turn, the codes of that degree
    and their first positions.  A caller keeps it between calls, and the
    degrees it lacks are appended to it in place, so each degree is
    enumerated once.  Its entries must come from the same generators: a
    caller that adds generators of degree k deletes the entries from k on.
    """
    if degree < 0:
        return []
    if table is None:
        table = []
    if not table:
        table.append(([()], [-1]))  # the empty code; its first position is -1
    for r in range(len(table), degree + 1):
        codes: list[tuple] = []
        for p, dp in enumerate(degrees):
            if dp > r:
                break  # the degrees do not decrease: every later position is too big
            for e in range(1, (1 if odd[p] else r // dp) + 1):
                rest = r - e * dp
                head = ((p, e),)
                if rest == 0:
                    codes.append(head)
                else:
                    tails, firsts = table[rest]
                    codes += [head + tail for tail in tails[bisect_right(firsts, p) :]]
        table.append((codes, [code[0][0] for code in codes]))
    return table[degree][0]


def generating_series_dimension(gens: Sequence[Generator], degree: int) -> int:
    """Dimension of the free algebra in one degree, via the generating function.

    Independent of `monomial_basis`: multiplies out
    prod 1/(1-t^|v|) over even v times prod (1+t^|v|) over odd v.
    """
    coeffs = [0] * (degree + 1)
    coeffs[0] = 1
    for g in gens:
        d = g.degree
        if g.is_odd:
            for k in range(degree, d - 1, -1):
                coeffs[k] += coeffs[k - d]
        else:
            for k in range(d, degree + 1):
                coeffs[k] += coeffs[k - d]
    return coeffs[degree]
