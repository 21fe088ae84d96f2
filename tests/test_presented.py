from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from sullivan.errors import InputError, TruncationError
from sullivan.expr import parse_element
from sullivan.gca import Element, Generator, monomial_basis
from sullivan.presented import PresentedAlgebra, validate_presentation

from conftest import (
    ReferenceSlices,
    classes,
    mixed_parity_presentations,
    product_route_indecomposables,
    small_presentations,
)

F = Fraction


@pytest.fixture(scope="module")
def fat_wedge_part():
    # the 4-skeleton of a product of three 2-spheres
    return PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("x3", 2)],
        ["x1^2", "x2^2", "x3^2", "x1*x2*x3"],
        truncation=7,
    )


def test_reduce_takes_no_differential(fat_wedge_part, monkeypatch):
    """A's differential is zero, so reducing modulo the ideal reads no d."""
    from sullivan.dgca import FreeDGCA

    by_name = {g.name: g for g in fat_wedge_part.generators}
    x = parse_element("x1*x2 + 3*x1^2 - x2*x3", by_name)
    space = fat_wedge_part.graded_component(4)  # built before the count
    calls = []
    original = FreeDGCA._d_code

    def counting(self, code):
        calls.append(code)
        return original(self, code)

    monkeypatch.setattr(FreeDGCA, "_d_code", counting)
    reduced = fat_wedge_part.reduce(x)
    assert calls == []
    assert str(reduced) == "x1*x2 - x2*x3"
    assert str(space.class_of(x).representative) == str(reduced)


@pytest.fixture(scope="module")
def wedge():
    return PresentedAlgebra.from_strings(
        [("a1", 2), ("a2", 2), ("a3", 2)],
        ["a1^2", "a1*a2", "a1*a3", "a2^2", "a2*a3", "a3^2"],
        truncation=7,
    )


def test_validate_ok(wedge):
    assert validate_presentation(wedge) == []


def test_validate_inhomogeneous():
    A = PresentedAlgebra.from_strings([("a1", 2), ("a2", 2)], ["a1 + a1*a2"], 6)
    problems = validate_presentation(A)
    assert any("inhomogeneous" in p for p in problems)
    assert any("#1" in p for p in problems)


def test_degree_one_generator_is_rejected_at_construction():
    with pytest.raises(InputError):
        PresentedAlgebra.from_strings([("t", 1)], [], 4)


def test_relation_beyond_truncation():
    A = PresentedAlgebra.from_strings([("a", 2)], ["a^3"], truncation=4)
    problems = validate_presentation(A)
    assert any("exceeds the truncation" in p for p in problems)


def test_component_of_truncated_polynomial_ring():
    A = PresentedAlgebra.from_strings([("a", 2)], ["a^2"], truncation=6)
    assert A.graded_component(4).dimension == 0
    assert A.graded_component(2).dimension == 1
    assert A.graded_component(0).dimension == 1
    assert A.graded_component(3).dimension == 0


def test_component_dimension_fat_wedge_part(fat_wedge_part):
    comp = fat_wedge_part.graded_component(4)
    assert comp.dimension == 3
    assert sorted(str(c.representative) for c in classes(comp)) == [
        "x1*x2",
        "x1*x3",
        "x2*x3",
    ]


def test_component_dimension_wedge_degree4(wedge):
    assert wedge.graded_component(4).dimension == 0


def test_truncation_error(wedge):
    with pytest.raises(TruncationError):
        wedge.graded_component(8)


def test_duplicate_generators_are_refused():
    # a generator listed twice is one generator, not two: A^2 and A^4 would
    # otherwise be counted over two copies of it
    a = Generator("a", 2, 0, 0)
    with pytest.raises(InputError, match="duplicate generators"):
        PresentedAlgebra([a, a], [], 5)


def test_indecomposables_of_truncated_polynomial_ring():
    A = PresentedAlgebra.from_strings([("a", 2)], ["a^2"], truncation=6)
    ind = A.indecomposables(2)
    assert [g.name for g in ind] == ["a"]
    assert A.indecomposables(0) == []


def test_indecomposables_vanish_on_products(fat_wedge_part):
    assert len(fat_wedge_part.indecomposables(4)) == 0


def test_indecomposables_wedge_degree2(wedge):
    assert len(wedge.indecomposables(2)) == 3


def test_products(fat_wedge_part):
    gens = {g.name: g for g in fat_wedge_part.generators}
    x1 = parse_element("x1", gens)
    x2 = parse_element("x2", gens)
    x2x3 = parse_element("x2*x3", gens)
    assert not fat_wedge_part.product(x1, x2).is_zero
    assert fat_wedge_part.product(x1, x2x3).is_zero


def test_product_in_wedge_vanishes(wedge):
    gens = {g.name: g for g in wedge.generators}
    a1 = parse_element("a1", gens)
    a2 = parse_element("a2", gens)
    assert wedge.product(a1, a2).is_zero


@settings(max_examples=60, deadline=None)
@given(small_presentations())
def test_dimension_two_routes_agree(data):
    """dim A^m as monomials-minus-ideal-rank equals the rank of reduction."""
    algebra, truncation = data
    for m in range(0, truncation + 1):
        comp = algebra.graded_component(m)
        decoded = [algebra.element_of({code: 1}).monomials()[0] for code in algebra.keys(m)]
        assert decoded == monomial_basis(algebra.generators, m)
        total = len(monomial_basis(algebra.generators, m))
        # rank of the reduction map = number of independent images of monomials
        from sullivan.linalg import RowSpace

        space = RowSpace()
        for mon in monomial_basis(algebra.generators, m):
            coords = comp.class_of(Element.from_monomial(mon)).coordinates
            space.insert({i: c for i, c in enumerate(coords) if c})
        assert comp.dimension == space.rank
        assert comp.dimension <= total


def _check_against_sympy_rref(sympy, algebra):
    for m in range(0, algebra.truncation + 1):
        monomials = monomial_basis(algebra.generators, m)
        rows = []
        for rel in algebra.relations:
            d = rel.homogeneous_degree()
            for cof in monomial_basis(algebra.generators, m - d):
                product = Element.from_monomial(cof) * rel
                rows.append([sympy.Rational(product.coefficient(mon)) for mon in monomials])
        pivots = sympy.Matrix(rows).rref()[1] if rows else ()
        comp = algebra.graded_component(m)
        assert comp.dimension == len(monomials) - len(pivots)
        assert [c.representative for c in classes(comp)] == [
            Element.from_monomial(mon)
            for j, mon in enumerate(monomials)
            if j not in pivots
        ]


def test_component_matches_sympy_rref(fat_wedge_part):
    """A^m against sympy's rref of the ideal slice over QQ, an independent elimination."""
    sympy = pytest.importorskip("sympy")
    # small_presentations() reaches no slice with more than one cofactor per
    # relation, so two fixed presentations cover that case.
    mixed = PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("y", 3)],
        ["x1^2 + 2*x1*x2 - x2^2", "x1*y - x2*y"],
        truncation=9,
    )
    for algebra in (fat_wedge_part, mixed):
        _check_against_sympy_rref(sympy, algebra)

    @settings(max_examples=60, deadline=None)
    @given(small_presentations())
    def check(data):
        _check_against_sympy_rref(sympy, data[0])

    check()


@settings(max_examples=40, deadline=None)
@given(small_presentations())
def test_indecomposables_complement_decomposables(data):
    algebra, truncation = data
    for m in range(1, truncation + 2):  # Q(A) is taken of positive degrees
        names = [g.name for g in algebra.indecomposables(m)]
        assert names == product_route_indecomposables(algebra, m), m


@settings(max_examples=40, deadline=None)
@given(mixed_parity_presentations())
@example(
    # a linear part in degree 5, beside a decomposable term
    PresentedAlgebra.from_strings(
        [("a", 3), ("x", 2), ("b", 3), ("c", 5)],
        ["a*x + 1/2*c", "2/3*x^3 - b^2"],
        10,
    )
)
def test_indecomposables_match_the_product_route(algebra):
    for m in range(1, algebra.truncation + 1):
        names = [g.name for g in algebra.indecomposables(m)]
        assert names == product_route_indecomposables(algebra, m), m


@pytest.mark.parametrize(
    "generators, relation, expected",
    [
        ([("a", 2), ("b", 2), ("x", 4)], "x - a*b", []),
        ([("a", 2), ("b", 2), ("x", 4), ("y", 4)], "2*x + 3*y - a*b", ["y"]),
        ([("a", 2), ("x", 4), ("y", 4)], "x - y", ["y"]),
        ([("a", 2), ("x", 4)], "x - a^2", []),
    ],
    ids=["generator-is-a-product", "one-of-two-survives", "generators-identified",
         "generator-is-a-square"],
)
def test_indecomposables_of_relations_with_linear_parts(generators, relation, expected):
    algebra = PresentedAlgebra.from_strings(generators, [relation], 6)
    assert [g.name for g in algebra.indecomposables(4)] == expected
    assert product_route_indecomposables(algebra, 4) == expected


def test_indecomposables_refuse_degrees_past_the_truncation(wedge):
    assert len(wedge.indecomposables(7)) == 0
    with pytest.raises(TruncationError):
        wedge.indecomposables(8)


@settings(max_examples=60, deadline=None)
@given(mixed_parity_presentations())
@example(
    # b * (a*x) = -a*b*x but b * c = b*c: the Koszul sign differs between
    # the terms of one row; a * (a*x) = 0, and b^2 parses to 0; 1/2 scales
    # the first relation
    PresentedAlgebra.from_strings(
        [("a", 3), ("x", 2), ("b", 3), ("c", 5)],
        ["a*x + 1/2*c", "2/3*x^3 - b^2"],
        10,
    )
)
def test_code_keyed_slices_match_the_element_product_slices(algebra):
    """Each A^m equals, as text, that of the Element-product ideal slice."""
    reference = ReferenceSlices(algebra.generators, algebra.relations, algebra.truncation)
    for m in range(algebra.truncation + 1):
        space, expected = algebra.graded_component(m), reference.graded_component(m)
        decoded = [algebra.element_of({code: 1}).monomials()[0] for code in space.keys]
        assert decoded == expected.keys, m
        assert repr(space.coboundaries.fraction_rows()) == repr(
            expected.coboundaries.fraction_rows()
        ), m
        assert repr(space._class_rows) == repr(expected._class_rows), m
        assert [str(algebra.element_of({code: 1})) for code in space.complement] == [
            str(mon) for mon in expected.complement
        ], m
        everything = Element.zero()
        for i, mon in enumerate(expected.keys):
            x = Element.from_monomial(mon, F(i + 1, 2))
            everything = everything + x
            assert str(algebra.reduce(x)) == str(reference.reduce(x)), (m, mon)
        assert str(algebra.reduce(everything)) == str(reference.reduce(everything)), m
