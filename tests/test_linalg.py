import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import linalg
from sullivan.errors import InputError
from sullivan.linalg import RowSpace, kernel_rref, solve_in_span

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
    assert space.rank + len(space.kernel(cols)) == cols


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
    assert space.rank == 2
    assert space.contains({0: F(2), 1: F(4)})
    assert space.contains({0: F(1), 1: F(3), 2: F(1)})
    assert not space.contains({2: F(1)})


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


@settings(max_examples=200, deadline=None)
@given(kernel_problems())
def test_kernel_rref_matches_two_eliminations_and_sympy(problem):
    rows, columns, n = problem
    got = kernel_rref(rows, columns)
    assert got == _reference_kernel_rref(rows, columns, n)
    assert got == _sympy_kernel_rref(rows, columns, n)
    leads = [min(vec) for vec in got]
    assert leads == sorted(leads) and all(vec[p] == 1 for vec, p in zip(got, leads))
    assert all(set(vec) <= set(columns) for vec in got)


def test_kernel_rref_edges():
    # no rows: the unit vectors of the kept columns, untouched columns included
    assert kernel_rref([], [1, 4]) == [{1: F(1)}, {4: F(1)}]
    assert kernel_rref([{0: 1, 2: 1}, {}], []) == []
    # entries off the kept columns meet only zero coordinates
    assert kernel_rref([{0: 5, 1: 2, 2: -1}], [1, 2]) == [{1: F(1), 2: F(2)}]
    big = 2**200 + 1
    assert kernel_rref([{0: big, 1: F(1, 3)}], [0, 1]) == [{0: F(1), 1: F(-3 * big)}]
