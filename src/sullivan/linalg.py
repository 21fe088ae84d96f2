"""Exact linear algebra over the rationals.

All arithmetic is arbitrary-precision rational; there is no floating point
anywhere in the package.  `RowSpace` is the engine: a Gauss-Jordan
accumulator over sparse integer rows, which is what keeps the big, very
sparse differential slices cheap.  Rows handed to it are ``{column: value}``
dicts; values may be ints or Fractions.  `kernel_rref`, `solve_rows`,
`solve_in_span` and `intersect_spans` are built on it.  `solve_rows` writes
several sparse targets over one sparse basis from a single elimination, one
augmented column per target.  `solve_in_span` solves one dense target; its
only library caller left is `minimal_model.preimage_in_v0_v1`, which no
construction calls and `perfbench/layertrace.py` requires.
`intersect_spans` has no library caller: `perfbench/layertrace.py` wraps it,
and the tests' reference kill step meets spans with it.

A row of a reduced row-echelon form has no entry left of its pivot, so a
new pivot p can occur only in the rows whose pivots lie below p: those are
the only rows an insert back-substitutes into.  A span known up front is
built by one constructor call, which inserts the rows rightmost leading
column first; a new pivot then usually lies left of every existing one and
needs no back-substitution at all.  Among rows with one leading column the
shorter go first, and rows equal in both keep the order they came in.  Two
stable sorts give that order with C-level keys, by ``len`` and then by
``min`` reversed, where one sort on a Python key ``(-min(r), len(r))`` would
call a lambda and build a tuple per row.

An insert finds the rows that hold p by walking every pivot below p.  Few
of them do: one pass over the benchmark's ``model-wedge`` jobs visits
290 549 pivots for 1 196 back-substitutions, and 94% of those visits come
at a rank of 256 or more.  So once a space that ``RowSpace(rows)`` builds
reaches rank `INDEX_RANK`, the build indexes its rows by column: each
non-pivot column lists the pivots whose rows may hold it, and a new pivot p
back-substitutes into the rows listed under p alone.  A row that gains a
column lists itself under it; a row that loses one stays listed and is
passed over when the column becomes a pivot, so the lists only grow.  The
threshold is 256 because below it the walk is cheap and the index costs
more to keep than it saves.  With the index from the first row
(``INDEX_RANK = 0``), the constructor calls of one ``model-dense`` pass ran
6-10% slower and those of one ``verdict-cli`` pass 2-3% slower, in the
median of 30 alternating replays, and ``scripts/ab_pairs.py`` put whole
passes of both 1-3% slower.  No ``model-dense`` space reaches rank 256, and
the one ``verdict-cli`` space that does makes no visit past it
(``scripts/profile_build.py --counts``).  The constructor hands each row to
`insert`, the one insert path, and holds the index in the ``_holders`` slot
only while it runs, so a built space holds none and a later `insert` walks.
Either way the stored rows are the canonical reduced form, so nothing a
caller reads depends on the path.

An insert copies the row with its denominators cleared (`_integer_row`
always builds a new dict) and eliminates the copy's pivot columns in place,
on that copy alone, so a row handed in is never changed.  Then it makes the
row primitive (content divided out, leading entry positive), once: scaling
a row before the elimination scales the result by the same factor, so the
stored row is the same.  The content is a running gcd that stops at the
first 1: in the model of the wedge of three 2-spheres through degree 10,
97% of the rows stop early, and the gcd reads 31% of the entries.  A row of
ints, which is what a differential with integer coefficients gives, skips
the denominator pass, and a combination with a pivot row whose leading
entry is 1 only subtracts the pivot row's multiple, without scaling the row
first.  Otherwise a combination that kills the entry b with the leading
entry a divides g = gcd(a, b) out of both before scaling, which keeps the
entries small: a stored row's leading entry a is positive, so every row
built that way is a positive rational multiple of the one built from
a * r - b * piv, and `_primitive` maps both to the same stored row.
`_eliminate` takes each such step in its own loop, with no call per killed
column, and serves both sites: `insert` kills every stored pivot in its
copy, and a back-substitution kills the new pivot p in a copy of the stored
row, with ``{p: new row}`` as the pivot rows.  A stored row is not
`insert`'s own, and ``scripts/profile_build.py --counts`` counts each
back-substitution by the new row it leaves.
A kernel entry is an int wherever it is integral and a `Fraction` only
otherwise: the entry -v / lead is -v when the row's leading entry is 1 and
the quotient when lead divides v.  On the wedge models nearly every entry is
an int, and the class rows keep them through to the d(g) tables.

>>> space = RowSpace([{0: 2, 1: 4}, {0: 1, 1: 2}])
>>> space.fraction_rows(), space.pivots()
([{0: Fraction(1, 1), 1: Fraction(2, 1)}], [0])
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Vector = tuple[Fraction, ...]

# the rank at which `RowSpace(rows)` stops walking the pivots to back-substitute
# and looks the rows up in a column index instead (see the module docstring);
# also the fewest columns of a chunk of grading blocks that `dgca.CohomologySpace`
# eliminates on its own, so that a chunk's elimination is one the index serves
INDEX_RANK = 256

_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"expected an exact rational, got {type(x).__name__}")


def add_scaled(vec: dict, c, row: Mapping) -> dict:
    """``vec += c * row`` in place, dropping the entries that cancel; returns ``vec``."""
    get = vec.get
    for col, v in row.items():
        w = get(col)
        # a new entry adds no zero: 0 + Fraction takes Fraction's slow reflected path
        w = c * v if w is None else w + c * v
        if w:
            vec[col] = w
        else:
            vec.pop(col, None)
    return vec


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """Divide out the content and make the leading (lowest-column) entry positive.

    A row with content is built anew, not divided in place: the new dict is
    sized to its entries, where the eliminated one may keep the slots of
    the entries it lost, and a stored row lives as long as its space.
    """
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:  # no entry can lower it
            break
    lead = min(row)
    if row[lead] < 0:
        g = -g
    if g not in (0, 1):
        row = {c: v // g for c, v in row.items()}
    return row


def _integer_row(row: Mapping[int, Fraction | int]) -> dict[int, int]:
    """The row times the lcm of its denominators, without its zero entries.

    An entry is an int or a `Fraction`, never a subclass of one, so a type
    test tells them apart; `isinstance` would pay for an ABC check on every
    int entry.  A row of ints, the common case, is copied in one pass, which
    stops at the first entry that is not an int.
    """
    out = {}
    for c, v in row.items():
        if type(v) is not int:
            break
        if v:
            out[c] = v
    else:
        return out
    den = 1
    for v in row.values():
        if type(v) is Fraction:
            den = lcm(den, v.denominator)
    out = {}
    for c, v in row.items():
        if type(v) is Fraction:
            n = v.numerator * (den // v.denominator)
        else:
            n = v * den
        if n:
            out[c] = n
    return out


class RowSpace:
    """Row space of a set of sparse vectors, kept in fully reduced form.

    Rows are primitive integer dicts, keyed by pivot column; the pivots are
    also kept as an increasing list.  Insertion order does not matter: the
    accumulated reduced row-echelon form is the canonical one of the span.
    It does matter for speed, so ``RowSpace(rows)`` drops the empty rows and
    inserts the rest by decreasing leading column, shorter rows first among
    equal leading columns, ties in the order given; from rank `INDEX_RANK`
    on it back-substitutes through a column index, which it drops when it
    returns.
    """

    __slots__ = ("_rows", "_pivots", "_holders")

    def __init__(self, rows: Iterable[Mapping[int, Fraction | int]] = ()):
        self._rows: dict[int, dict[int, int]] = {}
        self._pivots: list[int] = []
        self._holders: defaultdict[int, list[int]] | None = None
        # the order of the key (-min(r), len(r)), by two stable C-level sorts
        pending = list(filter(None, rows))
        pending.sort(key=len)
        pending.sort(key=min, reverse=True)
        # popped in that order, so that each row is freed once inserted
        pending.reverse()
        while pending:
            if self._holders is None and len(self._rows) >= INDEX_RANK:
                self._holders = self._index()
            self.insert(pending.pop())
        self._holders = None

    def pivots(self) -> list[int]:
        return list(self._pivots)

    def insert(self, row: Mapping[int, Fraction | int]) -> int | None:
        """Add a row; return its pivot column, or None if it was dependent.

        It back-substitutes through the column index in ``_holders`` when the
        constructor has set one (see `_index`), and keeps it so.
        """
        r = _primitive(self._eliminate(_integer_row(row), self._rows))
        if not r:
            return None
        p = min(r)
        rows = self._rows
        at = bisect_left(self._pivots, p)
        holders = self._holders
        if holders is None:
            # back-substitute the new pivot into the rows with a pivot below p;
            # the rows with a pivot above p have no entry at p
            for q in self._pivots[:at]:
                other = rows[q]
                if p in other:
                    rows[q] = _primitive(self._eliminate(other.copy(), {p: r}))
        else:
            for q in holders.pop(p, ()):
                other = rows[q]
                if p in other:  # else a stale entry: the row lost p since
                    new = rows[q] = _primitive(self._eliminate(other.copy(), {p: r}))
                    # a column the row gained is one of r's
                    for c in r:
                        if c not in other and c in new:
                            holders[c].append(q)
            for c in r:
                if c != p:
                    holders[c].append(p)
        rows[p] = r
        self._pivots.insert(at, p)
        return p

    def _index(self) -> defaultdict[int, list[int]]:
        """Each non-pivot column of the stored rows, with the pivots of the rows that hold it."""
        holders = defaultdict(list)
        for q, row in self._rows.items():
            for c in row:
                if c != q:
                    holders[c].append(q)
        return holders

    @staticmethod
    def _eliminate(r: dict[int, int], rows: Mapping[int, dict[int, int]]) -> dict[int, int]:
        """Kill every column of ``r`` that is a pivot of ``rows``, in place; return ``r``."""
        get = r.get
        for c in [c for c in r if c in rows]:
            b = get(c)
            if b is None:  # an earlier kill cancelled it
                continue
            piv = rows[c]
            a = piv[c]
            if a != 1:
                g = gcd(a, b)
                a //= g
                b //= g
                if a != 1:
                    for col, v in r.items():
                        r[col] = v * a
            for col, v in piv.items():
                w = get(col, 0) - b * v
                if w:
                    r[col] = w
                else:
                    del r[col]
        return r

    def reduce(self, vec: Mapping[int, Fraction | int]) -> dict[int, Fraction]:
        """Eliminate every pivot coordinate of ``vec``; exact, non-destructive."""
        v = {c: _as_fraction(x) for c, x in vec.items() if x}
        hits = [c for c in v if c in self._rows]
        for c in hits:
            if c not in v:
                continue
            row = self._rows[c]
            add_scaled(v, -v[c] / row[c], row)
        return v

    def rows(self) -> Iterator[dict[int, int]]:
        """The stored primitive integer rows, in increasing pivot order; read them only."""
        return (self._rows[p] for p in self._pivots)

    def fraction_rows(self) -> list[dict[int, Fraction]]:
        """The canonical reduced rows, normalised to leading coefficient 1."""
        out = []
        for p in self._pivots:
            row = self._rows[p]
            lead = row[p]
            out.append({c: Fraction(v, lead) for c, v in row.items()})
        return out

    def kernel(self, ncols: int) -> list[dict[int, int | Fraction]]:
        """Canonical (free-variable) basis of ``{x : row . x = 0 for all rows}``.

        An entry is an int when its value is integral, the free column's 1
        included, and a `Fraction` with denominator > 1 otherwise.
        """
        # one pass over the rows: each non-pivot column's entries, by pivot
        entries: defaultdict[int, list[tuple[int, int | Fraction]]] = defaultdict(list)
        for p in self._pivots:
            row = self._rows[p]
            lead = row[p]
            if lead == 1:
                for f, v in row.items():
                    if f != p:
                        entries[f].append((p, -v))
            else:
                for f, v in row.items():
                    if f != p:
                        entries[f].append((p, -v // lead if v % lead == 0 else Fraction(-v, lead)))
        out = []
        for f in range(ncols):
            if f in self._rows:
                continue
            vec = {f: 1}
            vec.update(entries.get(f, ()))
            out.append(vec)
        return out


def kernel_rref(
    rows: Iterable[Mapping[int, Fraction | int]], columns: Sequence[int]
) -> list[dict[int, int | Fraction]]:
    """Reduced row-echelon basis of the kernel of ``rows`` on ``columns``.

    The kernel is ``{x : x_c = 0 off columns, row . x = 0 for all rows}``.
    ``columns`` must be increasing, and the rows are given over the reversed
    column order, in which they are eliminated: position i of a row is its
    coefficient at columns[-1 - i], for 0 <= i < len(columns).  The
    free-variable kernel of that reduced form is already the forward one:
    the vector of free column f is 1 at f, 0 at every other free column, and
    nonzero elsewhere only at pivots, which in reversed order all lie above
    f.  So the result, over ``columns`` in increasing leading column with
    leading coefficient 1, is the forward reduced row-echelon form of the
    kernel, without a second elimination.  A caller that builds its rows
    over the reversed positions from the start hands each row to the
    elimination as it is, with no second dict per row.  The entries are
    those of `RowSpace.kernel`: ints where integral, `Fraction`s otherwise.

    >>> kernel_rref([{0: 1, 2: 1}], [3, 5, 7])
    [{3: 1, 7: -1}, {5: 1}]
    >>> kernel_rref([{0: 2, 1: 1}], [4, 9])
    [{4: 1, 9: Fraction(-1, 2)}]
    """
    top = len(columns) - 1
    return [
        {columns[top - c]: v for c, v in vec.items()}
        for vec in reversed(RowSpace(rows).kernel(len(columns)))
    ]


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
    rows: list[dict[int, Fraction]] = []
    for j in range(n):
        row: dict[int, Fraction] = {}
        for i, b in enumerate(basis):
            if b[j]:
                row[i] = _as_fraction(b[j])
        t = _as_fraction(target[j])
        if t:
            row[aug] = t
        rows.append(row)
    space = RowSpace(rows)
    if aug in space._rows:
        return None
    coeffs = [_ZERO] * k
    for p, row in space._rows.items():
        if aug in row:
            coeffs[p] = Fraction(row[aug], row[p])
    return tuple(coeffs)


def solve_rows(
    basis: Sequence[Mapping[int, Fraction | int]],
    targets: Sequence[Mapping[int, Fraction | int]],
) -> list[dict[int, Fraction]] | None:
    """Each target as a combination of the basis rows, or None if one is outside their span.

    Rows are sparse ``{coordinate: value}`` dicts.  The transposed system
    [basis^T | targets^T], with one column per basis row and then one per
    target, is eliminated once.  The RREF of that system restricted to the
    basis columns is the RREF of basis^T, however many target columns ride
    along; a target column holds a pivot exactly when its target is outside
    the span.  Each solution is the canonical one, with every free coefficient
    zero, as ``{basis index: c}`` in increasing index with no zero entries:
    the entry at the pivot row of basis index p is row[target] / row[p], which
    does not depend on the scaling of the row.

    >>> solve_rows([{0: 2, 1: 4}, {1: 1}], [{0: 1, 1: 2}, {1: 3}, {}])
    [{0: Fraction(1, 2)}, {1: Fraction(3, 1)}, {}]
    >>> solve_rows([{0: 1}], [{1: 1}]) is None
    True
    """
    k = len(basis)
    transposed: defaultdict[int, dict[int, Fraction | int]] = defaultdict(dict)
    for i, row in enumerate([*basis, *targets]):
        for j, v in row.items():
            if v:
                transposed[j][i] = v
    space = RowSpace(transposed.values())
    pivots = space._pivots
    if pivots and pivots[-1] >= k:
        return None
    out: list[dict[int, Fraction]] = [{} for _ in targets]
    for p in pivots:
        row = space._rows[p]
        lead = row[p]
        for col, v in row.items():
            if col >= k:
                out[col - k][p] = Fraction(v, lead)
    return out


# Not called here: perfbench/layertrace.py wraps it, and the tests' kill-step oracle calls it.
def intersect_spans(
    rows_a: Sequence[Mapping[int, Fraction]],
    rows_b: Sequence[Mapping[int, Fraction]],
) -> list[dict[int, Fraction]]:
    """Canonical basis of span(rows_a) & span(rows_b), as reduced rows."""
    if not rows_a or not rows_b:
        return []
    ka, kb = len(rows_a), len(rows_b)
    # kernel of [A^T | -B^T]: coefficient vectors with sum a_i A_i = sum b_j B_j
    transposed: dict[int, dict[int, Fraction]] = {}
    for i, r in enumerate(rows_a):
        for c, v in r.items():
            transposed.setdefault(c, {})[i] = v
    for j, r in enumerate(rows_b):
        for c, v in r.items():
            transposed.setdefault(c, {})[ka + j] = -v
    meet = []
    for coeff in RowSpace(transposed.values()).kernel(ka + kb):
        vec: dict[int, Fraction] = {}
        for i, r in enumerate(rows_a):
            a = coeff.get(i)
            if a:
                add_scaled(vec, a, r)
        meet.append(vec)
    return RowSpace(meet).fraction_rows()
