"""Free differential graded-commutative algebras and their cohomology.

A `FreeDGCA` is a free graded-commutative algebra with a degree +1
differential given on generators and extended by the Leibniz rule.  The
differential is minimal: d(V) lies in the decomposables, so no d(g) has a
linear term, and the complex refuses one wherever it grows.  Every complex
the package builds is such: a minimal model, a presented algebra (zero
differential) and the complexes of even mode.  All statements about degree m
require generator data through degree m and differential targets through
m + 1; operations refuse to answer beyond the declared truncation instead of
silently truncating.

Cohomology in each degree is computed by exact linear algebra, with the
canonical class representatives fixed by a reduced row-echelon form (RREF).
Two facts let one elimination after the coboundaries B give them.  First,
since B lies in the cocycles Z, the cocycles reduced modulo B span exactly
the cocycles with x_p = 0 at every pivot p of B: the kernel of d on the
non-pivot columns.  Second, the free-variable kernel of an RREF taken in
reversed column order is the forward RREF of that kernel, with leading
coefficient 1.  So `CohomologySpace` eliminates the d-constraints of the
non-pivot cochains once, in reversed column order (`linalg.kernel_rref`),
and reads the class rows off the kernel.

A complex whose every d(g) is homogeneous under a grading of its generators
eliminates in chunks.  A code's grade is the sum of its factors' grades, d
preserves it, and so the constraint rows of the free columns of one grade, a
block, have targets of that grade alone: the system is block-diagonal.  Its
kernel is the direct sum of the blocks' kernels, and the union of the
blocks' RREFs, each over its own columns in their order, is the RREF of the
whole: every row is zero off its block, so at the pivots of every other
block, and sorted by pivot the rows are in echelon form.  So
`CohomologySpace` packs whole blocks into chunks of at least
`linalg.INDEX_RANK` columns, builds and eliminates one chunk's constraint
table at a time, and merges the class rows by pivot, with the same result as
one elimination and the working set of the largest chunk.  A chunk holds
many blocks, so the number of eliminations stays near one per degree.
`FreeDGCA` keeps the grade of each position (see `extend_codes`): a
`minimal_model` build seeds it with A's grading (see `presented`), and any
other complex has none and eliminates each degree whole, as does a degree
with no more free columns than one chunk.

The coboundary rows and class rows of degree k together form an echelon
basis of Z^k.  If P is its pivot set, d of the basis cochains off P (the
complement) is a basis of B^(k+1), so the coboundaries of degree k + 1 are
taken from the complement of degree k, and no coboundary row is dependent.

A `FreeDGCA` keeps one `CohomologySpace` for each degree k whose cohomology
it has computed.  It grows by `extend`, and each space lives through the
extensions that leave it computable.  A new generator g of degree |g| adds
the cochain g in degree |g| and cochains in degrees >= |g| + 2, since every
degree is at least 2; it is the last key of degree |g|.  For the space of
degree k:

* |g| > k: the cochains of degrees k - 1 and k, and their d, do not change;
  the space stays as it is.
* |g| = k and dg = 0 (a stage-0 lift): Z^k gains g and B^k is unchanged,
  so the space gains the unit class row at g's column.
* a kill step of H^(k + 1), |g| = k: the caller vouches (``kills`` in
  `extend_codes`) that the d(g) are independent modulo B^(k+1).  Then Z^k
  does not change, and g joins the complement.
* a kill step of H^k, |g| = k - 1: B^k gains the span of the killed classes.
  The surviving class rows are those at the positions that are not pivots
  of the killed span, in class coordinates (see `minimal_model`).
* anything else (|g| <= k - 2, or a degree-k or degree-(k - 1) generator
  with dg != 0 and no one to vouch for it): the space is dropped, and the
  next `cohomology(k)` eliminates from scratch.

The rules cost O(new generators) per space: rows and complements are
amended in place, never copied, and an amended space is built again over
them and the new keys by `CohomologySpace.from_class_rows`, which does no
elimination and builds the coboundaries only when something reads them.  So
after `minimal_model.build_minimal_model`, which grows one complex through
every degree, the cohomology of the model costs no elimination at all.  A
space read before an extension that amends it is stale; `cohomology(k)`
answers with the one built again.

`CohomologySpace` and `decomposition` read a complex through a small
interface -- ``keys``, ``d_basis``, ``boundaries``, ``terms_of``,
``element_of``, the parity table ``_odd`` and the grade table ``_grade`` or
None -- which two complexes serve:
`FreeDGCA` and the cell-attachment complex `attachment.AttachmentModel`.
The presented algebra (A, 0) of
`presented.PresentedAlgebra` is a `FreeDGCA` with zero differential that
overrides ``boundaries`` alone: its coboundaries are the ideal slices.  A
free complex keys its columns by the integer codes of its monomials, the
attachment complex by the codes of its base model and one more key, u, for
the attached cell.  Both keep their spaces by `FreeDGCA.cohomology`, which
the attachment complex binds as its own: it refuses a degree beyond the
truncation, keeps one space per degree in ``_spaces`` and has ``_space(m)``
build a missing one, by elimination in a free complex and from the base
model's space in the attachment complex.  `decomposition` writes one class
as a combination of products of classes, over the spaces a complex caches,
and multiplies class rows on codes; the verdict asks it of [u] alone, since
a presented algebra reads its indecomposables off its relations.

Inside a `FreeDGCA` everything runs on integer codes, not on `Monomial`s or
`Element` products.  A code is a sorted tuple of ``(position, exponent)``
pairs, where the position indexes ``FreeDGCA.gens``; because the generators
are kept in the global generator order, a sorted code is a normalised
monomial, and increasing code order is the canonical monomial order.
`FreeDGCA.extend_codes` tabulates the position, degree and parity of each
new generator and its d(g) as (code, coefficient) pairs, the form every
code-keyed term list of the package takes.  It checks the degree of every
term, that the positions of every code increase and that no term is linear,
or, in a kill step, whose d(g) come keyed by column, that every term is a
column of degree |g| + 1.  `keys(m)` enumerates the codes of degree m over
those tables (`gca.monomial_codes`), and d of a monomial is a merge of small
int tuples with the Koszul sign counted from the odd factors, which the
parity table ``_odd`` names (`code_products`, which also multiplies out the
ideal slices of a presented algebra).  Since d is minimal, every term of
d(g) lies at positions below g's: it has word length at least 2 and every
degree is at least 2, so each of its factors has degree below |g|, and
generators sort by degree first.  So d of a factor g of a monomial only
merges each term into the factors before g and appends the factors from g on
(`_d_code`).

The codes are the only form in which a `FreeDGCA` keeps its differential,
and the printed model reads d(g) from them (`d_codes`, `cli.model_json`).
`Element`, `Monomial` and `Generator` appear only at the API boundary:
``element_of`` decodes codes only where a class representative or an API
result leaves the complex (`d_monomial`, `basis`), and `extend`, `key` and
``terms_of`` encode the elements handed in.

Renaming generators changes none of that.  `FreeDGCA.renamed` keeps every
generator at its position, so the renamed complex shares the code tables and
the keys with its source and starts from copies of its spaces; only the
generator tuple, which decodes codes into monomials, and the position table,
which encodes them, are new.
"""

from __future__ import annotations

import copy
import weakref
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Collection, Mapping, Sequence

from .errors import InputError, IntegrityError, TruncationError
from .gca import Element, Generator, Monomial, monomial_codes
# Not called here: perfbench/layertrace.py wraps monomial_basis under every
# module name bound to it and requires this binding.
from .gca import monomial_basis  # noqa: F401
from .linalg import INDEX_RANK, RowSpace, add_scaled, kernel_rref, solve_rows
# Not called here: perfbench/layertrace.py wraps solve_in_span under every
# module name bound to it and requires this binding.
from .linalg import solve_in_span  # noqa: F401

_ZERO = Fraction(0)
_ONE = Fraction(1)


def code_products(terms, base: tuple, left, odd, tail: tuple = ()) -> list:
    """Each term t of ``terms`` multiplied into the code ``base``, as (code, coefficient) pairs.

    ``terms`` holds (code, coefficient) pairs, and ``odd`` is the parity table
    of the positions.  t stands after the factors of ``base``, whose odd
    positions are ``left``, and before those of ``tail``, every position of
    which lies above t's.  The product's code is t merged into ``base``, then
    ``tail``; its Koszul sign counts the odd factors of t passing those of
    ``left``, and an odd factor in both t and ``base`` kills the term.
    """
    n = len(base)
    out = []
    for t, c in terms:
        inversions = 0
        merged = []
        j = 0
        for q, f in t:
            if odd[q]:
                if q in left:
                    break  # an odd factor repeats
                for x in left:
                    if x > q:
                        inversions += 1
            while j < n and base[j][0] < q:
                merged.append(base[j])
                j += 1
            if j < n and base[j][0] == q:
                merged.append((q, base[j][1] + f))
                j += 1
            else:
                merged.append((q, f))
        else:
            out.append(((*merged, *base[j:], *tail), -c if inversions & 1 else c))
    return out


class FreeDGCA:
    """Free graded-commutative algebra with a differential on generators.

    The complex grows by `extend`; `__init__` is an extension of the empty
    complex.
    """

    def __init__(
        self,
        gens: Sequence[Generator],
        d_on_gens: Mapping[Generator, Element],
        truncation: int,
    ):
        self.truncation = truncation
        self.gens: tuple[Generator, ...] = ()
        # degree m -> (the codes of degree m, their first positions); see keys
        self._codes: list[tuple[list[tuple], list[int]]] = []
        # degree k -> H^k, kept through the extensions that leave it computable
        self._spaces: dict[int, CohomologySpace] = {}
        # code tables: generator positions, degrees and parities, and each
        # d(g) as (code, coefficient) pairs
        self._position: dict[Generator, int] = {}
        self._degree: list[int] = []
        self._odd: list[bool] = []
        self._d_codes: list[tuple] = []
        # the grade of each position, or None once a batch comes that no
        # grading vouches for; see extend_codes
        self._grade: list[int] | None = []
        # set once a batch with no kills vouch brings a nonzero d(g); see extend_codes
        self.d_is_data = False
        self.extend(gens, d_on_gens)

    def extend(self, gens: Sequence[Generator], d_on_gens: Mapping[Generator, Element]):
        """Append generators that sort after every existing one, with their d.

        Each new d(g) may use any old or new generator; it is turned into
        codes, and `extend_codes` validates and appends the batch.
        """
        new = sorted(gens, key=Generator.sort_key)
        position = self._position | {g: p for p, g in enumerate(new, len(self.gens))}
        layer = []
        for g in new:
            dg = d_on_gens.get(g, Element.zero())
            try:
                terms = {
                    tuple([(position[h], e) for h, e in mon.powers]): c for mon, c in dg.terms()
                }
            except KeyError:
                # name the first unknown generator in printing order
                h = next(
                    h for mon in dg.monomials() for h in mon.generators() if h not in position
                )
                raise InputError(f"d({g.name}) uses the unknown generator {h.name!r}") from None
            layer.append((g, terms))
        self.extend_codes(layer)

    def extend_codes(
        self,
        layer: Sequence[tuple[Generator, Mapping[tuple | int, int | Fraction]]],
        kills: Collection[int] | None = None,
        grades: Mapping[Generator, int] | None = None,
    ):
        """Append generators, each with its d given as {code: nonzero coefficient}.

        A kill layer (see ``kills`` below) gives each d(g) by column instead.

        The generators, in any order, must sort after every existing one; the
        new ones take the next positions in their sorted order, and a code may
        use any old or new position.  Every term of d(g) must have degree
        |g| + 1, its code increasing positions, and no term may be linear.
        Every degree is at least 2 and generators sort by degree first, so
        every factor of a longer term sorts before g, and a linear term, of
        degree |g| + 1, after it: a term is linear exactly when its last
        position is not below g's.  A coefficient must be a nonzero int or
        `Fraction`, and any other, zero, a float or a bool included, is refused
        with an `InputError` that names g.  d(g) is kept as (code, coefficient)
        pairs, the form `_d_code` gives: an int as it is, a `Fraction` with
        denominator 1 as its numerator.  A refused batch leaves the complex
        unchanged.  Code positions stay stable, and the spaces of H^k at or
        above the smallest new degree, low, are kept, amended or dropped by
        the rules of the module docstring.
        Every degree is at least 2, so a product with a new generator has
        degree at least low + 2, and a new one-factor code sorts after every
        other code of its degree.  So the code tables of degrees below
        low + 2 are kept, with the new one-factor codes appended to new
        lists, and only those from low + 2 on are dropped.

        ``kills`` is given by a caller that vouches for a kill step: every new
        generator has one degree k - 1, and the d(g) are representatives of
        classes of H^k that are independent modulo the coboundaries, whose
        span has its reduced echelon pivots at the class positions ``kills``
        of `cohomology(k)`.  Such a layer keys each term of d(g) by its int
        column j of ``cohomology(k).keys``, 0 <= j < len(keys), as the class
        rows of that space are keyed; any other key, a code included, is
        refused with an `InputError`, and the term is kept as the pair of the
        column's key and its coefficient.  A column is stricter than the
        check of each (position, exponent) pair that every other batch gets:
        its key also has no odd generator twice, and it uses only old
        positions.  The new generators sort after every old one, so no old
        generator has degree k, no key of degree k is linear, and every term
        lies below its generator.

        The vouch also covers d(d g) = 0, since each d(g) of a kill layer is
        a cocycle.  Any other batch is data that nothing proved closed: the
        first one that brings a nonzero d(g) sets ``d_is_data``, which
        `renamed` carries over, and `attachment.AttachmentModel` checks d^2
        only on a complex that has it set.  Batches with d = 0 (stage-0
        lifts, every `presented.PresentedAlgebra`) leave it as it is.

        The grade table, one int per position, keeps a grading that every
        d(g) preserves, for `CohomologySpace` to eliminate by.  The empty
        complex has an empty table.  ``grades``, given by a caller that
        vouches for it (the stage-0 lifts of `minimal_model`, with d = 0),
        gives each new generator's grade.  A kill layer's d(g) are class rows
        of a graded H^k and so homogeneous (see `minimal_model`), and each new
        generator takes the grade of the first term of its d(g).  Any other
        batch drops the table for good, and `renamed` shares it.
        """
        layer = sorted(layer, key=lambda pair: pair[0].sort_key())
        if not layer:
            return
        new = tuple(g for g, _ in layer)
        if len(set(new)) != len(new) or not self._position.keys().isdisjoint(new):
            raise InputError("duplicate generators")
        if self.gens and new[0].sort_key() < self.gens[-1].sort_key():
            raise InputError(
                f"generator {new[0].name!r} sorts before the existing {self.gens[-1].name!r}"
            )
        count = len(self.gens) + len(new)
        degree = self._degree + [g.degree for g in new]
        odd = self._odd + [g.is_odd for g in new]
        if kills is not None:
            if new[0].degree != new[-1].degree:
                raise InputError("the generators of a kill step must have one degree")
            keys = self.cohomology(new[0].degree + 1).keys
        d_codes = []
        for position, (g, terms) in enumerate(layer, len(self.gens)):
            pairs = []
            for code, c in terms.items():
                if kills is not None:
                    if type(code) is not int or not 0 <= code < len(keys):
                        raise InputError(
                            f"d({g.name}) has a term that is not a column of degree "
                            f"{g.degree + 1}"
                        )
                    code = keys[code]
                else:
                    total, last = 0, -1
                    for p, e in code:
                        if not 0 <= p < count:
                            raise InputError(f"d({g.name}) uses the unknown position {p}")
                        if p <= last:
                            raise InputError(
                                f"d({g.name}) has a code whose positions do not increase"
                            )
                        total += degree[p] * e
                        last = p
                    if total != g.degree + 1:
                        raise InputError(
                            f"d({g.name}) must be homogeneous of degree {g.degree + 1}"
                        )
                    if last >= position:  # a linear term: see the docstring
                        raise InputError(
                            f"d({g.name}) has the linear term {(self.gens + new)[last].name!r}; "
                            "a FreeDGCA takes minimal differentials only"
                        )
                if type(c) is not int:
                    if type(c) is not Fraction:
                        raise InputError(
                            f"d({g.name}) has the coefficient {c!r}, which is not an int "
                            "or a Fraction"
                        )
                    if c.denominator == 1:
                        c = c.numerator
                if not c:
                    raise InputError(f"d({g.name}) has a zero coefficient")
                pairs.append((code, c))
            d_codes.append(tuple(pairs))
        grade = self._grade
        if grade is not None and kills is not None:
            grade = list(grade)
            for dg in d_codes:
                total = 0
                for p, e in dg[0][0] if dg else ():
                    total += e * grade[p]
                grade.append(total)
        elif grade is not None and grades is not None:
            grade = grade + [grades[g] for g in new]
        else:
            grade = None

        self._position.update((g, p) for p, g in enumerate(new, len(self.gens)))
        self.gens += new
        self._degree, self._odd, self._grade = degree, odd, grade
        self._d_codes += d_codes
        if kills is None and any(d_codes):
            self.d_is_data = True
        low = new[0].degree
        # see the docstring; a kept entry is replaced, never appended to in
        # place, since keys(m) and renamed() share its lists
        del self._codes[low + 2 :]
        for m in range(low, len(self._codes)):
            ones = [p for p in range(count - len(new), count) if degree[p] == m]
            if ones:
                codes, firsts = self._codes[m]
                self._codes[m] = (codes + [((p, 1),) for p in ones], firsts + ones)
        self._update_spaces(new, count - len(new), kills)

    def _update_spaces(self, new, first: int, kills):
        """Keep, amend or drop each space of H^k by the rules of the module docstring.

        The new generators are sorted and sit at positions first, first + 1, ...
        An amended space is built again over its rows and complement.
        """
        low, top = new[0].degree, new[-1].degree
        killing = kills is not None and low == top
        for k in [k for k in self._spaces if k >= low]:
            space = self._spaces[k]
            rows, complement = space._class_rows, space.complement
            if killing and k == low + 1:
                rows = [row for i, row in enumerate(rows) if i not in kills]
            elif killing and k == low:
                complement.extend(((p, 1),) for p in range(first, first + len(new)))
            elif k == low and all(
                not dg for g, dg in zip(new, self._d_codes[first:]) if g.degree == k
            ):
                # its new keys are the new generators of degree k, last
                rows.extend({j: 1} for j in range(len(space.keys), len(self.keys(k))))
            else:
                del self._spaces[k]
                continue
            self._spaces[k] = CohomologySpace.from_class_rows(
                weakref.proxy(self), k, rows, complement
            )

    # --- cochain spaces -------------------------------------------------
    def keys(self, m: int) -> list[tuple]:
        """The codes of the degree-m monomials, in the canonical monomial order.

        They are enumerated over the position, degree and parity tables, each
        degree once, from the kept codes of the degrees below (m <= truncation + 1).
        """
        if m > self.truncation + 1:
            raise TruncationError(
                f"degree {m} data requested from a model truncated at {self.truncation}"
            )
        return monomial_codes(self._degree, self._odd, m, self._codes)

    def renamed(self, names: Sequence[str]) -> "FreeDGCA":
        """This complex with the generator at position p named names[p].

        Each generator keeps its degree, stage and index, so every code keeps
        its meaning and nothing is rebuilt or re-encoded: the renamed complex
        shares the code tables and the keys, builds each space of its source
        again over copies of its class rows and complement, and decodes its
        classes afresh, with the new names.  It copies the lists and dicts
        that `extend_codes` changes in place, so extending either complex
        leaves the other as it was.  Names that would reorder two generators
        (`Generator.sort_key` breaks a tie by name) are refused with an
        `InputError` that names both.
        """
        gens = tuple(
            Generator(name, g.degree, g.stage, g.index)
            for name, g in zip(names, self.gens, strict=True)
        )
        for p in range(1, len(gens)):
            if gens[p - 1].sort_key() >= gens[p].sort_key():
                before, after = self.gens[p - 1], self.gens[p]
                raise InputError(
                    f"the new names {gens[p - 1].name!r} and {gens[p].name!r} would "
                    f"reorder the generators {before.name!r} and {after.name!r}"
                )
        out = copy.copy(self)
        out.gens = gens
        out._position = {g: p for p, g in enumerate(gens)}
        out._d_codes = list(self._d_codes)
        out._codes = list(self._codes)
        proxy = weakref.proxy(out)  # see CohomologySpace
        out._spaces = {
            k: CohomologySpace.from_class_rows(proxy, k, list(s._class_rows), list(s.complement))
            for k, s in self._spaces.items()
        }
        return out

    def basis(self, m: int) -> list[Monomial]:
        """Monomial basis of the degree-m cochains (m <= truncation + 1)."""
        return list(map(self._monomial, self.keys(m)))

    # --- differential ---------------------------------------------------
    def d_codes(self):
        """Each generator with d(g) as it is kept: (code, coefficient) pairs.

        A coefficient is an int wherever it is integral and a `Fraction`
        otherwise; the parity of each position is read from ``_odd``.
        """
        return zip(self.gens, self._d_codes)

    def d_monomial(self, mon: Monomial) -> Element:
        """d of one monomial by the Leibniz rule."""
        return self.element_of(dict(self._d_code(self.key(mon))))

    def _monomial(self, code: tuple) -> Monomial:
        gens = self.gens
        return Monomial(tuple([(gens[p], e) for p, e in code]))

    def key(self, mon: Monomial) -> tuple:
        """The code of a monomial: its column key in `CohomologySpace`."""
        position = self._position
        return tuple([(position[g], e) for g, e in mon.powers])

    def _d_code(self, code: tuple) -> list[tuple[tuple, int | Fraction]]:
        """d of one monomial code as (code, coefficient) pairs, with no zero coefficients.

        Terms are listed in the order the Leibniz rule produces them: factor by
        factor, and within a factor in the order of the terms of d(g).

        The factor g at position p gives prefix * d(g) * g^(e-1) * rest, where
        every position in prefix is below p and every one in rest is at least
        p.  d is minimal, so every term t of d(g) lies at positions below p
        (see `extend_codes`): the product's code is merge(prefix, t) + rest,
        simply t + rest when prefix is empty, and t passes no factor of rest,
        so the Koszul sign counts only the odd positions of prefix.

        No two terms share a key, so none is added to another and the pairs
        are listed as they come, with no dict to merge them.  A term t of
        d(g) has degree |g| + 1 and every degree is at least 2, so t has no
        factor g: the keys of the factor g^e hold g^(e-1), those of any
        other factor hold g^e or more, and distinct terms of d(g) give
        distinct keys.  Each factor's terms are stored as they come, scaled
        by its sign times its exponent only when that is not 1: negated as
        ``-c`` when it is -1, which skips the gcd that ``Fraction * int``
        pays for, and otherwise as ``c * scale``.  No ``0 + c`` and no
        ``int * c`` takes `Fraction`'s slow reflected path.  The odd
        positions of the prefix grow in one list as the factors go by.
        """
        odd, d_codes = self._odd, self._d_codes
        out: list[tuple[tuple, int | Fraction]] = []
        parity = 0  # parity of the degree of the factors before position i
        left = []  # the odd positions of the factors before position i
        for i, (p, e) in enumerate(code):
            dg = d_codes[p]
            if dg:
                rest = code[i + 1 :] if e == 1 else ((p, e - 1), *code[i + 1 :])
                scale = -e if parity else e
                if i:
                    terms = code_products(dg, code[:i], left, odd, rest)
                else:
                    terms = [(t + rest, c) for t, c in dg]
                if scale == -1:
                    terms = [(key, -c) for key, c in terms]
                elif scale != 1:
                    terms = [(key, c * scale) for key, c in terms]
                out += terms  # no key of an earlier factor: see the docstring
            if odd[p]:
                parity ^= e & 1
                left.append(p)
        return out

    def verify_d_squared(self) -> tuple[Generator, Element] | None:
        """None when d*d kills every generator, else (generator, residue)."""
        for g, dg in zip(self.gens, self._d_codes):
            if dg and g.degree <= self.truncation:
                residue: dict[tuple, int | Fraction] = {}
                for code, coeff in dg:
                    add_scaled(residue, coeff, dict(self._d_code(code)))
                if residue:
                    return g, self.element_of(residue)
        return None

    # --- cohomology -------------------------------------------------------
    def cohomology(self, m: int) -> "CohomologySpace":
        if m > self.truncation:
            raise TruncationError(
                f"cohomology in degree {m} exceeds the truncation {self.truncation}"
            )
        space = self._spaces.get(m)
        if space is None:
            space = self._spaces[m] = self._space(m)
        return space

    def _space(self, m: int) -> "CohomologySpace":
        """H^m by elimination: the hook `cohomology` calls when no space is kept."""
        space = CohomologySpace(self, m)
        space.cochains = weakref.proxy(self)  # see CohomologySpace
        return space

    # --- the cochain-complex interface read by CohomologySpace --------------
    # d of one basis monomial, given by its code: `_d_code` itself, no key twice
    d_basis = _d_code

    def boundaries(self, m: int):
        """The degree-m coboundaries as code-keyed terms of d of degree-(m - 1) cochains.

        While the space of H^(m - 1) is kept, these are d of its complement
        cochains (see `CohomologySpace`), a basis of B^m; otherwise d of every
        code in keys(m - 1).  Each is the list of pairs `_d_code` builds.
        """
        space = self._spaces.get(m - 1)
        codes = self.keys(m - 1) if space is None else space.complement
        return map(self._d_code, codes)

    def terms_of(self, x: Element):
        """The terms of an element, code-keyed.

        A generator outside the complex gets the position None, so a term
        holding one matches no column.
        """
        position = self._position
        return [
            (tuple([(position.get(g), e) for g, e in mon.powers]), c) for mon, c in x.terms()
        ]

    def element_of(self, terms: Mapping[tuple, int | Fraction]) -> Element:
        """The element with these code-keyed terms."""
        monomial = self._monomial
        return Element({monomial(code): c for code, c in terms.items()})


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

    The complex is read through ``keys(m)`` (the column keys of the
    degree-m basis cochains, in a fixed order: codes for a free complex),
    ``d_basis(k)`` (d of the basis cochain with key k, as (key, coefficient)
    pairs), ``boundaries(m)`` (a spanning set of the degree-m coboundaries,
    each as (key, coefficient) pairs), ``terms_of(x)`` (an element as (key,
    coefficient) pairs) and ``element_of(terms)`` (back from a {key:
    coefficient} mapping); d must square to zero.  Columns are decoded only
    where an element is built.

    Class representatives are the rows of the reduced row-echelon form, over
    that key order, of the cocycles with no coordinate at a pivot column
    of the coboundaries, as ``{column: value}`` with an int wherever the
    value is integral and a `Fraction` otherwise (`linalg.RowSpace.kernel`);
    `coordinates` gives `Fraction`s.  Because the coboundaries are cocycles,
    that space is the span of the cocycles reduced modulo the coboundaries,
    and it is the kernel of d on the non-pivot columns; `linalg.kernel_rref`
    gives its forward reduced form from one elimination in reversed column
    order, so d is taken only of the non-pivot cochains.  When the complex
    has a grade table (``_grade``) and the non-pivot columns are more than
    `linalg.INDEX_RANK`, that elimination runs once per chunk of whole
    grading blocks, and the class rows are merged by pivot: the RREF of a
    block-diagonal system is the union of its blocks' RREFs (see the module
    docstring).

    The coboundary rows and the class rows together are an echelon basis of
    the cocycles Z^m, with pivots P.  So the cochains off P, which
    ``complement`` lists by key, span a complement of Z^m, and d maps their
    span isomorphically onto B^(m+1): `FreeDGCA.boundaries` hands them down
    as a basis of the coboundaries one degree up.

    `from_class_rows` builds the space from class rows and a complement found
    some other way (a space a `FreeDGCA` keeps through an extension, or a
    twisted complex derived from its base); the coboundaries are then built
    only if something reads them.

    A complex that keeps its spaces reads each through a `weakref.proxy` of
    itself, set as the ``cochains`` of the space, so that no reference cycle
    runs through its store: refcounting frees a dropped complex with its
    spaces, and a kept space is read only while its complex lives.
    """

    def __init__(self, cochains, m: int):
        self.cochains = cochains
        self.degree = m
        self.keys = keys = cochains.keys(m)

        # classes: the kernel of d on the non-pivot columns, chunk by chunk
        pivots = set(self.coboundaries.pivots())
        free = [j for j in range(len(keys)) if j not in pivots]
        grade = cochains._grade
        if grade is None or len(free) <= INDEX_RANK:
            rows = _kernel(cochains, keys, free)
        else:
            rows = []
            for chunk in _chunks(free, keys, grade):
                rows += _kernel(cochains, keys, sorted(chain.from_iterable(chunk)))
            rows.sort(key=min)  # merged by pivot
        self._class_rows = rows
        self._class_pivots = [min(row) for row in self._class_rows]
        class_pivots = set(self._class_pivots)
        self.complement = [keys[j] for j in free if j not in class_pivots]

    @classmethod
    def from_class_rows(cls, cochains, m: int, rows, complement) -> "CohomologySpace":
        """H^m from its known class rows and complement, with no elimination.

        The lists are taken as they are, not copied: a `FreeDGCA` amends them
        in place when it extends and builds the space again over them, and
        `attachment.AttachmentModel` shares its base's lists in the degrees
        the twist does not touch.  The coboundaries are built only when
        first read.
        """
        out = cls.__new__(cls)
        out.cochains = cochains
        out.degree = m
        out.keys = cochains.keys(m)
        out._class_rows = rows
        out._class_pivots = [min(row) for row in rows]
        out.complement = complement
        return out

    @cached_property
    def index(self) -> dict:
        """Column position of each key."""
        return {k: i for i, k in enumerate(self.keys)}

    @cached_property
    def coboundaries(self) -> RowSpace:
        """The degree-m coboundaries in reduced form; built on first read."""
        index = self.index
        return RowSpace(
            {index[t]: c for t, c in boundary} for boundary in self.cochains.boundaries(self.degree)
        )

    @property
    def dimension(self) -> int:
        return len(self._class_rows)

    def _element(self, vec: Mapping[int, Fraction]):
        keys = self.keys
        return self.cochains.element_of({keys[i]: c for i, c in vec.items()})

    def _basis_class(self, i: int) -> CohomologyClass:
        coords = [_ZERO] * len(self._class_rows)
        coords[i] = _ONE
        return CohomologyClass(self.degree, self._element(self._class_rows[i]), tuple(coords))

    def vector_of(self, element) -> dict[int, Fraction]:
        vec: dict[int, Fraction] = {}
        for k, c in self.cochains.terms_of(element):
            i = self.index.get(k)
            if i is None:
                raise InputError(f"{element} has a term outside the degree-{self.degree} cochains")
            vec[i] = c
        return vec

    def coordinates(self, vec: Mapping[int, Fraction]) -> dict[int, Fraction]:
        """The class coordinates {class position: c} of a cocycle given by column.

        Reduced modulo the coboundaries, it is the sum of c * (class row) over
        its entries c at the class pivots.
        """
        residual = self.coboundaries.reduce(vec)
        coords = {}
        for i, (p, row) in enumerate(zip(self._class_pivots, self._class_rows)):
            if not residual:
                break
            c = residual.get(p)
            if not c:
                continue
            coords[i] = c
            add_scaled(residual, -c, row)
        if residual:
            raise IntegrityError("cocycle does not reduce into the class basis")
        return coords

    def class_of(self, element) -> CohomologyClass:
        """The class of a cocycle, in canonical coordinates.

        The cocycles are the coboundaries plus the span of the class rows, so
        a non-cocycle is what leaves `coordinates` a residual; no d is taken.
        """
        reduced = self.coboundaries.reduce(self.vector_of(element))
        try:
            coords = self.coordinates(reduced)  # its second reduction finds no pivot
        except IntegrityError:
            raise InputError("element is not a cocycle") from None
        dense = tuple(coords.get(i, _ZERO) for i in range(len(self._class_rows)))
        return CohomologyClass(self.degree, self._element(reduced), dense)


def _kernel(cochains, keys, columns: list[int]) -> list[dict]:
    """The RREF of the kernel of d on the increasing ``columns`` of ``keys``.

    One constraint row per target cochain, built over the reversed columns
    that `kernel_rref` eliminates in, and handed over one at a time, so that
    each row is freed once inserted.
    """
    constraint_rows: defaultdict[object, dict[int, Fraction]] = defaultdict(dict)
    last = len(columns) - 1
    for i, j in enumerate(columns):
        for t, c in cochains.d_basis(keys[j]):
            constraint_rows[t][last - i] = c
    drained = (constraint_rows.popitem()[1] for _ in range(len(constraint_rows)))
    return kernel_rref(drained, columns)


def _chunks(free: list[int], keys, grade: list[int]) -> list[list[list[int]]]:
    """The free columns by grading block, whole blocks packed into chunks.

    A block is the free columns of one grade, ``sum(e * grade[p])`` over the
    (p, e) pairs of the code, in increasing order.  The blocks go into chunks
    in the order their first free column appears, and a chunk is closed once
    it holds `linalg.INDEX_RANK` columns or more.
    """
    blocks: defaultdict[int, list[int]] = defaultdict(list)
    for j in free:
        g = 0
        for p, e in keys[j]:
            g += e * grade[p]
        blocks[g].append(j)
    chunks, chunk, size = [], [], 0
    for block in blocks.values():
        chunk.append(block)
        size += len(block)
        if size >= INDEX_RANK:
            chunks.append(chunk)
            chunk, size = [], 0
    if chunk:
        chunks.append(chunk)
    return chunks


def _class_products(target, left, right):
    """(i, j, coordinates in ``target``) of each nonzero product of class i of
    ``left`` and class j of ``right``, both of positive degree.

    `code_products` merges each term of a left class row with a right one,
    over the parity table: it gives the Koszul sign and kills a repeated odd
    factor.  An attachment's u, the one key that is no code, is dropped, as
    u . x = 0 for x of positive degree.  A product of cocycles is a cocycle,
    so its coordinates are read off the merged row.
    """
    index, odd = target.index, target.cochains._odd

    def code_rows(space):
        keys = space.keys
        return [
            [(keys[k], c) for k, c in row.items() if isinstance(keys[k], tuple)]
            for row in space._class_rows
        ]

    right_rows = code_rows(right)
    for i, terms in enumerate(code_rows(left)):
        for j, factor in enumerate(right_rows):
            vec: dict[int, int | Fraction] = {}
            for code, a in terms:
                products = code_products(factor, code, [p for p, _ in code if odd[p]], odd)
                add_scaled(vec, a, {index[k]: c for k, c in products})
            coords = target.coordinates(vec)
            if coords:
                yield i, j, coords


def decomposition(
    cohomology, cls: CohomologyClass
) -> list[tuple[Fraction, CohomologyClass, CohomologyClass]] | None:
    """``cls`` as a combination of products of positive-degree classes, or None.

    ``cohomology`` maps a degree to its cached `CohomologySpace`.  The witness
    lists the nonzero (coefficient, left class, right class) terms; only its
    classes are decoded.
    """
    m = cls.degree
    target = cohomology(m)
    products = []
    for p in range(1, m // 2 + 1):
        left, right = cohomology(p), cohomology(m - p)
        for i, j, coords in _class_products(target, left, right):
            products.append((coords, (left, i), (right, j)))
    if not products:
        return [] if cls.is_zero else None
    solutions = solve_rows(
        [coords for coords, _, _ in products],
        [{i: c for i, c in enumerate(cls.coordinates) if c}],
    )
    if solutions is None:
        return None
    return [(c, *(s._basis_class(i) for s, i in products[k][1:])) for k, c in solutions[0].items()]
