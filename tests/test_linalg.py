import doctest
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import linalg
from sullivan.errors import InputError
from sullivan.linalg import RowSpace, solve_in_span

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
