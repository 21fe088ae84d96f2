import doctest
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import gca
from sullivan.errors import InputError
from sullivan.gca import (
    Element,
    Generator,
    Monomial,
    format_terms,
    generating_series_dimension,
    monomial_basis,
    monomial_codes,
    monomial_text,
)

F = Fraction

a = Generator("a", 2, index=0)
a1 = Generator("a1", 2, index=1)
a2 = Generator("a2", 2, index=2)
b = Generator("b", 3, stage=1, index=3)
c = Generator("c", 3, stage=1, index=4)


def E(gen):
    return Element.from_generator(gen)


def test_doctests():
    assert doctest.testmod(gca).failed == 0


def test_degree_one_generator_rejected():
    with pytest.raises(InputError):
        Generator("t", 1)


def test_odd_square_is_zero():
    assert (E(b) * E(b)).is_zero
    assert (E(a) * E(b) * E(a1) * E(b)).is_zero


def test_odd_swap_flips_sign():
    assert E(c) * E(b) == Element({Monomial(((b, 1), (c, 1))): F(-1)})
    assert str(E(c) * E(b)) == "-b*c"
    assert E(c) * E(a) * E(b) == -(E(b) * E(c) * E(a))


def test_even_square():
    assert E(a) * E(a) == Element.from_monomial(Monomial.of(a, 2))
    assert str(E(a) * E(a)) == "a^2"


def test_normalize_is_stable():
    product = E(a) * E(b) * E(a1)
    [mon] = product.monomials()
    assert product.coefficient(mon) == 1
    again = Element({Monomial.unit(): 1})
    for g, e in mon.powers:
        for _ in range(e):
            again = again * E(g)
    assert again == product


def test_multiply_distributes():
    x = E(a)
    y = E(a) + E(b)
    assert x * y == Element(
        {Monomial.of(a, 2): F(1), Monomial((((a, 1)), (b, 1))): F(1)}
    )


def test_odd_anticommute():
    assert E(b) * E(c) == -(E(c) * E(b))


def test_squares_difference():
    lhs = (E(a1) + E(a2)) * (E(a1) - E(a2))
    assert lhs == Element({Monomial.of(a1, 2): F(1), Monomial.of(a2, 2): F(-1)})


def test_monomial_basis_single_even():
    basis = monomial_basis([a], 6)
    assert [str(m) for m in basis] == ["a^3"]


def test_monomial_basis_three_evens_degree_4():
    a3 = Generator("a3", 2, index=5)
    basis = monomial_basis([a1, a2, a3], 4)
    assert len(basis) == 6


def test_monomial_basis_mixed_parity():
    basis = monomial_basis([a, b], 7)
    assert [str(m) for m in basis] == ["a^2*b"]


def test_monomial_basis_degree_zero():
    assert [str(m) for m in monomial_basis([a, b], 0)] == ["1"]


def test_monomial_basis_many_generators():
    # more generators than the default recursion limit allows frames
    gens = [a] + [Generator(f"y{i}", 10, index=10 + i) for i in range(1200)]
    assert [str(m) for m in monomial_basis(gens, 4)] == ["a^2"]


def test_inhomogeneous_degree_raises():
    x = E(a) + E(b)
    with pytest.raises(InputError):
        x.homogeneous_degree()


def test_rendering_grammar():
    x = Element(
        {
            Monomial(((a1, 2), (b, 1))): F(1),
            Monomial.of(c): F(-3, 2),
        }
    )
    assert str(x) == "a1^2*b - 3/2*c"
    assert str(Element.zero()) == "0"
    assert str(-E(a)) == "-a"


gens_pool = [a, a1, a2, b, c, Generator("w", 5, stage=2, index=6)]


@st.composite
def homogeneous_elements(draw, degree=None):
    if degree is None:
        degree = draw(st.integers(2, 8))
    basis = monomial_basis(gens_pool, degree)
    if not basis:
        return Element.zero(), degree
    terms = {}
    for mon in draw(st.lists(st.sampled_from(basis), max_size=3)):
        terms[mon] = F(draw(st.integers(-3, 3)) or 1)
    return Element(terms), degree


@settings(max_examples=200, deadline=None)
@given(homogeneous_elements(), homogeneous_elements())
def test_graded_commutativity(xd, yd):
    x, p = xd
    y, q = yd
    sign = -1 if (p % 2) and (q % 2) else 1
    assert x * y == sign * (y * x)


@settings(max_examples=200, deadline=None)
@given(homogeneous_elements(), homogeneous_elements(), homogeneous_elements())
def test_associativity(xd, yd, zd):
    x, y, z = xd[0], yd[0], zd[0]
    assert (x * y) * z == x * (y * z)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 9))
def test_basis_size_matches_generating_series(degree):
    assert len(monomial_basis(gens_pool, degree)) == generating_series_dimension(
        gens_pool, degree
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-1, 9), max_size=8))
def test_monomial_codes_table_builds_each_degree_once(degrees_asked):
    ordered = sorted(gens_pool, key=Generator.sort_key)
    degrees, odd = [g.degree for g in ordered], [g.is_odd for g in ordered]
    table = []
    for degree in degrees_asked:
        before = list(table)
        assert monomial_codes(degrees, odd, degree, table) == monomial_codes(degrees, odd, degree)
        # the table grows to the degree asked, and keeps every entry it had
        assert len(table) == max(len(before), degree + 1)
        assert all(entry is old for entry, old in zip(table, before))


@pytest.mark.parametrize(
    "degrees,odd",
    [
        ((3, 4, 7), (True, False, False)),
        ((3, 4, 7), (False, False, True)),
        ((3, 3, 4, 7, 7), (True, True, False, False, True)),
        ((2, 5), (False, True)),
    ],
)
def test_monomial_codes_match_brute_force_enumeration(degrees, odd):
    """Every exponent vector of the right degree, in increasing code order; the
    degrees leave gaps, so many remainders of the enumeration have no codes."""
    top = 30
    ranges = [range(2) if o else range(top // d + 1) for d, o in zip(degrees, odd)]
    expected = [[] for _ in range(top + 1)]
    for exps in itertools.product(*ranges):
        total = sum(d * e for d, e in zip(degrees, exps))
        if total <= top:
            expected[total].append(tuple((p, e) for p, e in enumerate(exps) if e))
    table = []
    for degree in range(top + 1):
        codes = monomial_codes(degrees, odd, degree, table)
        assert codes == sorted(expected[degree])
        assert monomial_codes(degrees, odd, degree) == codes


def test_format_terms_writes_signs_magnitudes_and_the_unit():
    assert format_terms([]) == "0"
    terms = [("1", F(-2)), ("a", 1), ("b", F(-1)), ("c", F(3, 2))]
    assert format_terms(terms) == "-2 + a - b + 3/2*c"
    assert format_terms([("1", 1), ("a^2", -1)]) == "1 - a^2"
    assert format_terms([("a", 0), ("b", F(-5, 3)), ("c", 0)]) == "-5/3*b"
    # an int prints as its Fraction would
    for c in (3, -3, 1, -1):
        assert format_terms([("a", c), ("b", c)]) == format_terms([("a", F(c)), ("b", F(c))])
    assert monomial_text([]) == "1"
    assert monomial_text([("a", 2), ("b", 1)]) == "a^2*b" == str(Monomial(((a, 2), (b, 1))))
