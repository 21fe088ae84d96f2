"""Exact linear algebra over the rationals.

All arithmetic is arbitrary-precision rational; there is no floating point
anywhere in the package.  `RowSpace` is the engine: a Gauss-Jordan
accumulator over sparse integer rows, which is what keeps the big, very
sparse differential slices cheap.  Rows handed to it are ``{column: value}``
dicts; values may be ints or Fractions.  `solve_in_span` and
`intersect_spans` are built on it.

>>> space = RowSpace([{0: 2, 1: 4}, {0: 1, 1: 2}])
>>> space.fraction_rows(), space.pivots()
([{0: Fraction(1, 1), 1: Fraction(2, 1)}], [0])
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"expected an exact rational, got {type(x).__name__}")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the content and make the leading (lowest-column) entry positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


def _integer_row(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    """Clear denominators and reduce to a primitive integer row."""
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    out = {}
    for c, v in row.items():
        if isinstance(v, Fraction):
            n = v.numerator * (den // v.denominator)
        else:
            n = v * den
        if n:
            out[c] = n
    return _primitive(out)


class RowSpace:
    """Row space of a set of sparse vectors, kept in fully reduced form.

    Rows are primitive integer dicts.  Insertion order does not matter: the
    accumulated reduced row-echelon form is the canonical one of the span.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Mapping[int, Fraction | int]] = ()):
        self._rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.insert(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def insert(self, row: Mapping[int, Fraction | int]) -> int | None:
        """Add a row; return its pivot column, or None if it was dependent."""
        r = _integer_row(row)
        r = self._eliminate(r)
        if not r:
            return None
        p = min(r)
        # back-substitute the new pivot into the existing rows
        for q, other in self._rows.items():
            if p in other:
                self._rows[q] = _primitive(self._combine(other, r, p))
        self._rows[p] = r
        return p

    def _eliminate(self, r: dict[int, int]) -> dict[int, int]:
        hits = [c for c in r if c in self._rows]
        for c in hits:
            if c in r:
                r = self._combine(r, self._rows[c], c)
        return _primitive(r)

    @staticmethod
    def _combine(r: dict[int, int], piv: dict[int, int], c: int) -> dict[int, int]:
        """Return piv[c]*r - r[c]*piv, which kills column c."""
        a, b = piv[c], r[c]
        out = {col: v * a for col, v in r.items()}
        for col, v in piv.items():
            w = out.get(col, 0) - b * v
            if w:
                out[col] = w
            else:
                out.pop(col, None)
        return out

    def reduce(self, vec: Mapping[int, Fraction | int]) -> dict[int, Fraction]:
        """Eliminate every pivot coordinate of ``vec``; exact, non-destructive."""
        v = {c: _as_fraction(x) for c, x in vec.items() if x}
        hits = [c for c in v if c in self._rows]
        for c in hits:
            if c not in v:
                continue
            row = self._rows[c]
            factor = v[c] / row[c]
            for col, x in row.items():
                w = v.get(col, _ZERO) - factor * x
                if w:
                    v[col] = w
                else:
                    v.pop(col, None)
        return v

    def contains(self, vec: Mapping[int, Fraction | int]) -> bool:
        return not self.reduce(vec)

    def fraction_rows(self) -> list[dict[int, Fraction]]:
        """The canonical reduced rows, normalised to leading coefficient 1."""
        out = []
        for p in sorted(self._rows):
            row = self._rows[p]
            lead = row[p]
            out.append({c: Fraction(v, lead) for c, v in row.items()})
        return out

    def kernel(self, ncols: int) -> list[dict[int, Fraction]]:
        """Canonical (free-variable) basis of ``{x : row . x = 0 for all rows}``."""
        out = []
        for f in range(ncols):
            if f in self._rows:
                continue
            vec = {f: _ONE}
            for p, row in self._rows.items():
                if f in row:
                    vec[p] = Fraction(-row[f], row[p])
            out.append(vec)
        return out


def solve_in_span(basis: Sequence[Sequence], target: Sequence) -> Vector | None:
    """Coefficients c with sum(c_i * basis_i) == target, or None if unsolvable.

    The returned solution is the canonical one with all free coefficients
    zero.  Raises InputError when the vectors have mismatched lengths.

    >>> solve_in_span([(Fraction(2), Fraction(4))], (1, 2))
    (Fraction(1, 2),)
    """
    n = len(target)
    for b in basis:
        if len(b) != n:
            raise InputError("solve_in_span: vector lengths differ")
    k = len(basis)
    aug = k  # extra column carrying the right-hand side
    space = RowSpace()
    for j in range(n):
        row: dict[int, Fraction] = {}
        for i, b in enumerate(basis):
            if b[j]:
                row[i] = _as_fraction(b[j])
        t = _as_fraction(target[j])
        if t:
            row[aug] = t
        space.insert(row)
    if aug in space._rows:
        return None
    coeffs = [_ZERO] * k
    for p, row in space._rows.items():
        if aug in row:
            coeffs[p] = Fraction(row[aug], row[p])
    return tuple(coeffs)


def intersect_spans(
    rows_a: Sequence[Mapping[int, Fraction]],
    rows_b: Sequence[Mapping[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """Canonical basis of span(rows_a) & span(rows_b), as reduced rows."""
    if not rows_a or not rows_b:
        return []
    cols: set[int] = set()
    for r in rows_a:
        cols.update(r)
    for r in rows_b:
        cols.update(r)
    ka, kb = len(rows_a), len(rows_b)
    # kernel of [A^T | -B^T]: coefficient vectors with sum a_i A_i = sum b_j B_j
    space = RowSpace()
    for c in sorted(cols):
        row: dict[int, Fraction] = {}
        for i, r in enumerate(rows_a):
            if c in r:
                row[i] = r[c]
        for j, r in enumerate(rows_b):
            if c in r:
                row[ka + j] = -r[c]
        space.insert(row)
    meet = RowSpace()
    for coeff in space.kernel(ka + kb):
        vec: dict[int, Fraction] = {}
        for i, r in enumerate(rows_a):
            a = coeff.get(i)
            if not a:
                continue
            for c, v in r.items():
                w = vec.get(c, _ZERO) + a * v
                if w:
                    vec[c] = w
                else:
                    vec.pop(c, None)
        if vec:
            meet.insert(vec)
    return meet.fraction_rows()
