import doctest
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import linalg
from sullivan.errors import InputError
from sullivan.linalg import RowSpace, kernel_rref, solve_in_span, solve_rows

F = Fraction


def _sparse(entries):
    """Dense rows as the {column: value} dicts RowSpace takes."""
    return [{j: x for j, x in enumerate(row) if x} for row in entries]


def test_doctests():
    assert doctest.testmod(linalg).failed == 0


def test_rref_identity_is_fixed():
    space = RowSpace([{0: 1}, {1: 1}])
    assert space.fraction_rows() == [{0: F(1)}, {1: F(1)}]
    assert space.pivots() == [0, 1]


def test_rref_proportional_rows():
    space = RowSpace(_sparse([[2, 4], [1, 2]]))
    assert space.fraction_rows() == [{0: F(1), 1: F(2)}]
    assert space.pivots() == [0]


def test_rref_row_swap():
    space = RowSpace(_sparse([[0, 1], [1, 0]]))
    assert space.fraction_rows() == [{0: F(1)}, {1: F(1)}]
    assert space.pivots() == [0, 1]


def test_kernel_of_zero_matrix_is_everything():
    space = RowSpace(_sparse([[0, 0, 0], [0, 0, 0]]))
    assert space.kernel(3) == [{0: F(1)}, {1: F(1)}, {2: F(1)}]


def test_kernel_single_row():
    assert RowSpace(_sparse([[1, 2]])).kernel(2) == [{0: F(-2), 1: F(1)}]


def test_kernel_of_injective_map_is_empty():
    # one column mapping a^2 -> a^2: rank one, no kernel
    assert RowSpace(_sparse([[1]])).kernel(1) == []


def test_solve_outside_span():
    assert solve_in_span([(F(1), F(0))], (F(0), F(1))) is None


def test_solve_two_vectors():
    coeffs = solve_in_span([(F(1), F(1)), (F(1), F(-1))], (F(2), F(0)))
    assert coeffs == (F(1), F(1))


def test_solve_rational_coefficient():
    assert solve_in_span([(F(2), F(4))], (F(1), F(2))) == (F(1, 2),)


def test_solve_length_mismatch():
    with pytest.raises(InputError):
        solve_in_span([(F(1),)], (F(1), F(2)))


small_matrices = st.integers(1, 4).flatmap(
    lambda rows: st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-4, 4), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rref_is_idempotent(entries):
    space = RowSpace(_sparse(entries))
    again = RowSpace(space.fraction_rows())
    assert again.fraction_rows() == space.fraction_rows()
    assert again.pivots() == space.pivots()
    assert space.pivots() == sorted(space.pivots())


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_nullity(entries):
    space = RowSpace(_sparse(entries))
    cols = len(entries[0])
    assert len(space.pivots()) + len(space.kernel(cols)) == cols


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_solve_reconstructs_combinations(entries, weights):
    basis = [tuple(F(x) for x in row) for row in entries]
    n = len(basis[0])
    weights = (weights * 4)[: len(basis)]
    target = tuple(
        sum((F(w) * v[j] for w, v in zip(weights, basis)), F(0)) for j in range(n)
    )
    coeffs = solve_in_span(basis, target)
    assert coeffs is not None
    rebuilt = tuple(
        sum((c * v[j] for c, v in zip(coeffs, basis)), F(0)) for j in range(n)
    )
    assert rebuilt == target


@settings(max_examples=100, deadline=None)
@given(small_matrices)
def test_kernel_vectors_annihilate(entries):
    for vec in RowSpace(_sparse(entries)).kernel(len(entries[0])):
        for row in entries:
            assert sum((a * vec.get(j, F(0)) for j, a in enumerate(row)), F(0)) == 0


def test_rowspace_reduce_and_contains():
    space = RowSpace([{0: 1, 1: 2}, {1: 1, 2: 1}])
    assert len(space.pivots()) == 2
    assert not space.reduce({0: F(2), 1: F(4)})
    assert not space.reduce({0: F(1), 1: F(3), 2: F(1)})
    assert space.reduce({2: F(1)})


def test_intersect_spans():
    a = [{0: F(1), 1: F(0)}, {1: F(1), 2: F(0)}]  # span{e0, e1}
    b = [{1: F(1)}, {2: F(1)}]  # span{e1, e2}
    meet = linalg.intersect_spans(a, b)
    assert meet == [{1: F(1)}]
    assert linalg.intersect_spans(a, []) == []


# entries of every size the elimination meets: small ints, Fractions, and
# integers and fractions of 200 bits and more
kernel_entries = st.one_of(
    st.integers(-3, 3),
    st.builds(F, st.integers(-5, 5), st.integers(1, 4)),
    st.integers(2**200, 2**210).map(lambda v: v if v % 2 else -v),
    st.builds(F, st.integers(-(2**220), 2**220), st.integers(2**200, 2**201)),
)


@st.composite
def kernel_problems(draw):
    """Sparse rows (some empty) over n columns, and the increasing columns kept."""
    n = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, n - 1), kernel_entries, max_size=n),
            max_size=5,
        )
    )
    columns = sorted(draw(st.sets(st.integers(0, n - 1))))
    return rows, columns, n


def _reference_kernel_rref(rows, columns, n):
    """Two eliminations: the kernel, with x_c = 0 forced off columns, then its RREF."""
    pinned = [*rows, *({c: 1} for c in range(n) if c not in columns)]
    return RowSpace(RowSpace(pinned).kernel(n)).fraction_rows()


def _sympy_kernel_rref(rows, columns, n):
    """The same from sympy's exact Matrix: nullspace, then rref."""
    sympy = pytest.importorskip("sympy")
    pinned = [*rows, *({c: 1} for c in range(n) if c not in columns)] or [{}]
    matrix = sympy.Matrix([[sympy.Rational(row.get(j, 0)) for j in range(n)] for row in pinned])
    null = matrix.nullspace()
    if not null:
        return []
    reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
    return [
        {j: F(int(v.p), int(v.q)) for j, v in enumerate(reduced.row(i)) if v}
        for i in range(len(pivots))
    ]


def _over_reversed_columns(rows, columns):
    """The rows as `kernel_rref` takes them: position i holds column columns[-1 - i].

    Entries off ``columns`` meet only zero coordinates of the kernel, so they
    are dropped.
    """
    position = {c: len(columns) - 1 - i for i, c in enumerate(columns)}
    return [{position[c]: v for c, v in row.items() if c in position} for row in rows]


@settings(max_examples=200, deadline=None)
@given(kernel_problems())
def test_kernel_rref_matches_two_eliminations_and_sympy(problem):
    rows, columns, n = problem
    got = kernel_rref(_over_reversed_columns(rows, columns), columns)
    assert got == _reference_kernel_rref(rows, columns, n)
    assert got == _sympy_kernel_rref(rows, columns, n)
    leads = [min(vec) for vec in got]
    assert leads == sorted(leads) and all(vec[p] == 1 for vec, p in zip(got, leads))
    assert all(set(vec) <= set(columns) for vec in got)


def test_kernel_rref_edges():
    def kernel(rows, columns):
        return kernel_rref(_over_reversed_columns(rows, columns), columns)

    # no rows: the unit vectors of the kept columns, untouched columns included
    assert kernel([], [1, 4]) == [{1: F(1)}, {4: F(1)}]
    assert kernel([{0: 1, 2: 1}, {}], []) == []
    # entries off the kept columns meet only zero coordinates
    assert kernel([{0: 5, 1: 2, 2: -1}], [1, 2]) == [{1: F(1), 2: F(2)}]
    big = 2**200 + 1
    assert kernel([{0: big, 1: F(1, 3)}], [0, 1]) == [{0: F(1), 1: F(-3 * big)}]
    # the rows as given: position 0 is the last column
    assert kernel_rref([{0: 2, 1: 1}], [4, 9]) == [{4: F(1), 9: F(-1, 2)}]


nonzero_entries = kernel_entries.filter(bool)


@st.composite
def row_lists(draw):
    """Sparse rows over n columns: some empty, some with zero entries, and
    (when drawn) many that share one leading column."""
    n = draw(st.integers(1, 7))
    shared = draw(st.integers(0, n - 1))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        row = draw(st.dictionaries(st.integers(0, n - 1), kernel_entries, max_size=n))
        if draw(st.booleans()):
            row = {c: v for c, v in row.items() if c > shared}
            row[shared] = draw(nonzero_entries)
        rows.append(row)
    return rows, n


def _inserted_one_by_one(rows):
    """RowSpace().insert on each row, checking the pivot list and the reduced
    form after every insert: no row has an entry at another row's pivot."""
    space = RowSpace()
    for row in rows:
        space.insert(row)
        assert space.pivots() == sorted(space._rows)
        for p, stored in space._rows.items():
            assert min(stored) == p
            assert set(stored) & set(space._rows) == {p}
    return space


@settings(max_examples=200, deadline=None)
@given(row_lists(), st.randoms(use_true_random=False))
def test_constructor_matches_inserts_in_any_order(problem, rng):
    rows, n = problem
    shuffled = list(rows)
    rng.shuffle(shuffled)
    built = RowSpace(rows)
    assert built.pivots() == sorted(built._rows)
    kernel = [list(vec.items()) for vec in built.kernel(n)]
    for order in (rows, rows[::-1], shuffled):
        space = _inserted_one_by_one(order)
        assert space.fraction_rows() == built.fraction_rows()
        assert space.pivots() == built.pivots()
        assert len(space.pivots()) == len(built.pivots())
        # the kernel vectors list their entries by column, whatever the order
        assert [list(vec.items()) for vec in space.kernel(n)] == kernel


@settings(max_examples=200, deadline=None)
@given(row_lists())
def test_the_constructor_inserts_in_the_documented_order(problem):
    """RowSpace(rows) hands `insert` each nonempty row once, the rows handed
    in themselves, by decreasing leading column, shorter rows first among
    equal leading columns, and rows equal in both in the order given."""
    rows, _ = problem
    handed = []
    insert = RowSpace.insert

    def recording(self, row):
        handed.append(row)
        return insert(self, row)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowSpace, "insert", recording)
        RowSpace(rows)
    position = {id(row): i for i, row in enumerate(rows)}
    assert sorted(map(id, handed)) == sorted(id(row) for row in rows if row)
    order = [(-min(row), len(row), position[id(row)]) for row in handed]
    assert order == sorted(order)


# ---------------------------------------------------------------------------
# differential tests against sympy's exact Matrix (sympy is test-only)


def _sympy_matrix(rows, n):
    sympy = pytest.importorskip("sympy")
    entries = [sympy.Rational(row.get(j, 0)) for row in rows for j in range(n)]
    return sympy.Matrix(len(rows), n, entries)


def _fractions(vector):
    return {j: F(int(v.p), int(v.q)) for j, v in enumerate(vector) if v}


@settings(max_examples=100, deadline=None)
@given(row_lists())
def test_rowspace_matches_sympy(problem):
    rows, n = problem
    space = RowSpace(rows)
    matrix = _sympy_matrix(rows, n)
    assert len(space.pivots()) == matrix.rank()
    assert space.kernel(n) == [_fractions(vec) for vec in matrix.nullspace()]
    reduced, pivots = matrix.rref()
    assert space.pivots() == list(pivots)
    assert space.fraction_rows() == [_fractions(reduced.row(i)) for i in range(len(pivots))]


def test_combine_divides_out_the_common_factor():
    """The pivot row's leading entry a = 6 and the killed entry b = 4 share 2:
    the combination is 3*r - 2*piv, not 6*r - 4*piv."""
    piv = {0: 6, 1: 1, 3: 5}
    r = {0: 4, 2: 7, 3: -1}
    assert RowSpace._eliminate(r, {0: piv}) == {1: -2, 2: 21, 3: -13}


# entries the integer fast path of RowSpace.insert meets: ints, explicit
# zeros, and Fractions that are ints in value or not
small_entries = st.one_of(
    st.integers(-20, 20),
    st.integers(-20, 20).map(F),
    st.builds(F, st.integers(-20, 20), st.integers(1, 4)),
)


@st.composite
def int_and_fraction_rows(draw):
    """Rows over n columns: all-int ones, ones mixing ints with Fraction(v, 1),
    and ones with a proper fraction; with zero entries and negative leads."""
    n = draw(st.integers(1, 7))
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["int", "int-valued", "any"]))
        entries = {
            "int": st.integers(-20, 20),
            "int-valued": st.one_of(st.integers(-20, 20), st.integers(-20, 20).map(F)),
            "any": small_entries,
        }[kind]
        row = draw(st.dictionaries(st.integers(0, n - 1), entries, max_size=n))
        nonzero = [c for c, v in row.items() if v]
        if nonzero and draw(st.booleans()):
            lead = min(nonzero)
            row[lead] = -abs(row[lead])
        rows.append(row)
    return rows, n


def _reference_integer_row(row):
    """The integer row as insert made it before its int fast path: every entry
    scaled by the lcm of the Fraction denominators, then made primitive."""
    den = 1
    for v in row.values():
        if type(v) is F:
            den = lcm(den, v.denominator)
    out = {}
    for c, v in row.items():
        n = v.numerator * (den // v.denominator) if type(v) is F else v * den
        if n:
            out[c] = n
    if not out:
        return out
    g = 0
    for v in out.values():
        g = gcd(g, v)
    if out[min(out)] < 0:
        g = -g
    return {c: v // g for c, v in out.items()}


@settings(max_examples=200, deadline=None)
@given(int_and_fraction_rows())
def test_insert_fast_paths_match_the_old_path_and_sympy(problem):
    rows, n = problem
    for row in rows:
        assert linalg._primitive(linalg._integer_row(row)) == _reference_integer_row(row)
    space = RowSpace(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_integer_row", _reference_integer_row)
        old = RowSpace(rows)
    assert space._rows == old._rows and space.pivots() == old.pivots()
    kernel = space.kernel(n)
    assert kernel == old.kernel(n)
    matrix = _sympy_matrix(rows, n)
    reduced, pivots = matrix.rref()
    assert space.pivots() == list(pivots)
    assert space.fraction_rows() == [_fractions(reduced.row(i)) for i in range(len(pivots))]
    assert kernel == [_fractions(vec) for vec in matrix.nullspace()]
    # whichever path made them, a kernel entry is an int exactly when its
    # value is integral and otherwise a Fraction with denominator > 1, never
    # a bool or a float; the reduced rows stay all-Fraction
    columns = list(range(n))
    for vectors in (kernel, kernel_rref(rows, columns)):
        for vec in vectors:
            for v in vec.values():
                assert type(v) is int or (type(v) is F and v.denominator > 1), repr(v)
    assert all(type(v) is F for vec in space.fraction_rows() for v in vec.values())


@st.composite
def span_problems(draw):
    """k dense basis vectors of length n and a target, in their span or not."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 5))
    vector = st.lists(st.one_of(st.just(0), kernel_entries), min_size=n, max_size=n)
    basis = [tuple(draw(vector)) for _ in range(k)]
    if draw(st.booleans()):
        weights = draw(st.lists(kernel_entries, min_size=k, max_size=k))
        target = tuple(sum((F(w) * b[j] for w, b in zip(weights, basis)), F(0)) for j in range(n))
    else:
        target = tuple(draw(vector))
    return basis, target


@settings(max_examples=100, deadline=None)
@given(span_problems())
def test_solve_in_span_matches_sympy(problem):
    basis, target = problem
    n = len(target)
    columns = _sympy_matrix([dict(enumerate(b)) for b in basis], n).T
    rhs = _sympy_matrix([{0: t} for t in target], 1)
    got = solve_in_span(basis, target)
    try:
        solution, params = columns.gauss_jordan_solve(rhs)
    except ValueError:  # sympy: the system is inconsistent
        assert got is None
        return
    # the canonical solution sets every free coefficient to zero
    expected = solution.subs({p: 0 for p in params})
    assert got == tuple(F(int(v.p), int(v.q)) for v in expected)


@st.composite
def solve_rows_problems(draw):
    """Sparse basis rows over n coordinates and several targets.

    The basis may be empty and may hold duplicate rows, empty rows and rows
    whose entries are all explicit zeros; entries are ints and Fractions of
    every size.  Each target is a combination of the basis rows, an empty or
    all-zero row, or a random row, which may lie outside the span.
    """
    n = draw(st.integers(1, 6))
    entries = st.one_of(st.just(0), kernel_entries)
    row = st.dictionaries(st.integers(0, n - 1), entries, max_size=n)
    basis = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "duplicate", "zero"]))
        if kind == "duplicate" and basis:
            basis.append(dict(draw(st.sampled_from(basis))))
        elif kind == "zero":
            basis.append(draw(st.sampled_from([{}, {draw(st.integers(0, n - 1)): 0}])))
        else:
            basis.append(draw(row))
    targets = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["combination", "combination", "zero", "random"]))
        if kind == "combination":
            target = {}
            for b in basis:
                linalg.add_scaled(target, draw(kernel_entries), {c: F(v) for c, v in b.items()})
        elif kind == "zero":
            target = draw(st.sampled_from([{}, {0: 0}, {n - 1: F(0)}]))
        else:
            target = draw(row)
        targets.append(target)
    return basis, targets, n


def _dense(row, n):
    return tuple(F(row.get(j, 0)) for j in range(n))


@settings(max_examples=200, deadline=None)
@given(solve_rows_problems())
def test_solve_rows_matches_solve_in_span(problem):
    basis, targets, n = problem
    got = solve_rows(basis, targets)
    dense_basis = [_dense(b, n) for b in basis]
    expected = [solve_in_span(dense_basis, _dense(t, n)) for t in targets]
    # None exactly when some target is outside the span
    if any(coeffs is None for coeffs in expected):
        assert got is None
        return
    assert got == [{i: c for i, c in enumerate(coeffs) if c} for coeffs in expected]
    for solution, target in zip(got, targets):
        assert list(solution) == sorted(solution)
        assert all(type(c) is F and c for c in solution.values())
        rebuilt = {}
        for i, c in solution.items():
            linalg.add_scaled(rebuilt, c, basis[i])
        assert rebuilt == {j: v for j, v in target.items() if v}


@settings(max_examples=100, deadline=None)
@given(solve_rows_problems())
def test_solve_rows_matches_sympy(problem):
    basis, targets, n = problem
    got = solve_rows(basis, targets)
    if not basis:
        # no unknowns: only zero targets are solvable, each by the empty combination
        assert got == (None if any(any(t.values()) for t in targets) else [{}] * len(targets))
        return
    columns = _sympy_matrix(basis, n).T
    expected = []
    for target in targets:
        rhs = _sympy_matrix([{0: target.get(j, 0)} for j in range(n)], 1)
        try:
            solution, params = columns.gauss_jordan_solve(rhs)
        except ValueError:  # sympy: the system is inconsistent
            assert got is None
            return
        # the canonical solution sets every free coefficient to zero
        canonical = solution.subs({p: 0 for p in params})
        expected.append(_fractions(canonical))
    assert got == expected


def test_solve_rows_edges():
    assert solve_rows([], []) == []
    assert solve_rows([], [{}, {2: 0}]) == [{}, {}]
    assert solve_rows([], [{0: 1}]) is None
    assert solve_rows([{0: 2}, {}, {0: 2}], [{0: 3}, {}]) == [{0: F(3, 2)}, {}]
    # one inconsistent target makes the whole call None
    assert solve_rows([{0: 1, 1: 1}], [{0: 2, 1: 2}, {0: 1}]) is None
    assert solve_rows([{0: F(1, 3)}, {1: 1}], [{0: 1, 1: F(-1, 2)}]) == [{0: F(3), 1: F(-1, 2)}]


@settings(max_examples=100, deadline=None)
@given(row_lists(), row_lists())
def test_intersect_spans_matches_sympy(first, second):
    rows_a, n = first
    # both spans in the first problem's n columns
    rows_b = [{c % n: v for c, v in row.items()} for row in second[0]]
    meet = linalg.intersect_spans(rows_a, rows_b)
    rank_a = _sympy_matrix(rows_a, n).rank() if rows_a else 0
    rank_b = _sympy_matrix(rows_b, n).rank() if rows_b else 0
    rank_ab = _sympy_matrix(rows_a + rows_b, n).rank() if rows_a + rows_b else 0
    assert len(meet) == rank_a + rank_b - rank_ab
    assert meet == RowSpace(meet).fraction_rows()
    for row in meet:
        assert _sympy_matrix([*rows_a, row], n).rank() == rank_a
        assert _sympy_matrix([*rows_b, row], n).rank() == rank_b


# ---------------------------------------------------------------------------
# the column index that RowSpace(rows) back-substitutes through from INDEX_RANK on


@pytest.mark.parametrize("index_rank", [0, 2])
@pytest.mark.parametrize(
    "test",
    [
        test_rowspace_matches_sympy,
        test_constructor_matches_inserts_in_any_order,
        test_insert_fast_paths_match_the_old_path_and_sympy,
        test_kernel_rref_matches_two_eliminations_and_sympy,
    ],
    ids=lambda test: test.__name__,
)
def test_the_column_index_passes_the_rref_tests(test, index_rank, monkeypatch):
    """At 0 a build indexes from its first row; at 2 it walks the pivots for
    its first two rows and then switches to the index partway through."""
    monkeypatch.setattr(linalg, "INDEX_RANK", index_rank)
    test()


@settings(max_examples=150, deadline=None)
@given(row_lists(), st.integers(0, 9))
def test_insert_after_a_build_past_the_index_rank_matches_a_fresh_build(problem, split):
    """A built space keeps no index: a later insert walks the pivots, builds
    no index, and gives the space that one build of every row gives."""
    rows, _ = problem
    built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "INDEX_RANK", 2)
        index = RowSpace._index
        patch.setattr(RowSpace, "_index", lambda self: built.append(self) or index(self))
        space = RowSpace(rows[:split])
        indexed = len(built)
        for row in rows[split:]:
            space.insert(row)
        assert len(built) == indexed
        fresh = RowSpace(rows)
    assert space._rows == fresh._rows and space.pivots() == fresh.pivots()


def test_the_index_skips_a_row_that_lost_the_column():
    """The row of pivot 1 is listed under column 3 and loses that entry to the
    new pivot 2; the pivot at 3 then finds the stale entry and passes over it."""
    rows = [{1: 1, 2: 1, 3: 1}, {1: 1, 2: 2, 3: 2}, {1: 1, 2: 1, 3: 7, 4: 1}]
    want = RowSpace(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "INDEX_RANK", 0)
        got = RowSpace(rows)
    assert got._rows == want._rows == {1: {1: 1}, 2: {2: 6, 4: -1}, 3: {3: 6, 4: 1}}


# ---------------------------------------------------------------------------
# the elimination works in place, on insert's own copy of each row

# int rows and Fraction rows; two dependent rows (the fourth is twice the
# second, the last three times the first); a pivot row with leading entry 3,
# which scales the row it kills; and new pivots that back-substitute into
# the rows with a pivot left of them
HANDED_IN = [
    {0: 3, 1: 1, 2: 2},
    {0: 1, 1: 2},
    {0: F(1, 2), 1: F(3, 4), 2: 1},
    {0: 2, 1: 4},
    {1: F(5), 3: F(-2, 3)},
    {2: 1, 3: 1, 4: 2},
    {0: 9, 1: 3, 2: 6},
]


@pytest.mark.parametrize("index_rank", [linalg.INDEX_RANK, 0], ids=["walk", "index"])
def test_rowspace_leaves_the_rows_handed_in_unchanged(index_rank, monkeypatch):
    """RowSpace(rows) and insert(row) change no row handed in: not its keys,
    its values or their types.  A back-substitution replaces a stored row."""
    monkeypatch.setattr(linalg, "INDEX_RANK", index_rank)
    insert = RowSpace.insert
    back_substitutions = []

    def tracked(self, row):
        before = dict(self._rows)
        p = insert(self, row)
        back_substitutions.extend(q for q, kept in before.items() if self._rows[q] is not kept)
        return p

    monkeypatch.setattr(RowSpace, "insert", tracked)
    rows = [dict(row) for row in HANDED_IN]
    built = RowSpace(rows)
    assert repr(rows) == repr(HANDED_IN)
    assert len(built.pivots()) == len(rows) - 2 and back_substitutions
    built_back_substitutions = len(back_substitutions)
    grown = RowSpace()
    pivots = [grown.insert(row) for row in rows]
    assert repr(rows) == repr(HANDED_IN)
    assert pivots.count(None) == 2 and len(back_substitutions) > built_back_substitutions
    assert grown._rows == built._rows


@settings(max_examples=150, deadline=None)
@given(row_lists(), st.integers(0, 9), st.sampled_from([0, 2, linalg.INDEX_RANK]))
def test_rowspace_leaves_drawn_rows_unchanged(problem, split, index_rank):
    """As above, over drawn rows, built at once and grown by insert after a
    build of the first ``split``, with the column index from rank 0, 2 or
    the default."""
    rows, _ = problem
    before = repr(rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "INDEX_RANK", index_rank)
        RowSpace(rows)
        space = RowSpace(rows[:split])
        for row in rows[split:]:
            space.insert(row)
    assert repr(rows) == before
