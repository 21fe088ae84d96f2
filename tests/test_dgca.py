import gc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sullivan.attachment import AlphaFunctional, AttachmentElement, AttachmentModel
from sullivan.dgca import CohomologySpace, FreeDGCA, _class_products, decomposition
from sullivan.errors import InputError, TruncationError
from sullivan.fixtures import build_fixture
from sullivan.gca import (
    Element,
    Generator,
    Monomial,
    generating_series_dimension,
    monomial_basis,
)
from sullivan.linalg import RowSpace
from sullivan.minimal_model import BigradedModel, build_minimal_model
from sullivan.presented import PresentedAlgebra

from conftest import (
    _WEDGES, attachment_of, class_product, classes, coefficients, combine, d_of,
    kept_spaces, mixed_parity_presentations, small_presentations,
)

F = Fraction


@pytest.fixture(scope="module")
def sphere_model():
    """Lambda(a, b) with db = a^2: the model of the 2-sphere."""
    a = Generator("a", 2, index=0)
    b = Generator("b", 3, stage=1, index=1)
    return FreeDGCA(
        [a, b], {b: Element.from_monomial(Monomial.of(a, 2))}, truncation=8
    )


def gens_of(dgca):
    return {g.name: g for g in dgca.gens}


def d_on_gens(D):
    """Each d(g) as an `Element`, read through the complex as d of the monomial g."""
    return {g: D.d_monomial(Monomial.of(g)) for g in D.gens}


def test_leibniz_on_product(sphere_model):
    g = gens_of(sphere_model)
    ab = Element.from_monomial(Monomial(((g["a"], 1), (g["b"], 1))))
    a3 = Element.from_monomial(Monomial.of(g["a"], 3))
    assert d_of(sphere_model, ab) == a3


def test_leibniz_with_odd_first_factor():
    a1 = Generator("a1", 2, index=0)
    a2 = Generator("a2", 2, index=1)
    b1 = Generator("b1", 3, stage=1, index=2)
    b2 = Generator("b2", 3, stage=1, index=3)
    D = FreeDGCA(
        [a1, a2, b1, b2],
        {
            b1: Element.from_monomial(Monomial.of(a1, 2)),
            b2: Element.from_monomial(Monomial.of(a2, 2)),
        },
        truncation=8,
    )
    b1b2 = Element.from_monomial(Monomial(((b1, 1), (b2, 1))))
    expected = Element(
        {
            Monomial(((a1, 2), (b2, 1))): F(1),
            Monomial(((a2, 2), (b1, 1))): F(-1),
        }
    )
    assert d_of(D, b1b2) == expected


def test_d_squared_ok(sphere_model):
    assert sphere_model.verify_d_squared() is None


def test_d_squared_counterexample():
    a1 = Generator("a1", 2, index=0)
    a2 = Generator("a2", 2, index=1)
    b1 = Generator("b1", 3, stage=1, index=2)
    c = Generator("c", 4, stage=2, index=3)
    D = FreeDGCA(
        [a1, a2, b1, c],
        {
            b1: Element.from_monomial(Monomial(((a1, 1), (a2, 1)))),
            c: Element.from_monomial(Monomial(((a1, 1), (b1, 1)))),
        },
        truncation=8,
    )
    bad = D.verify_d_squared()
    assert bad is not None
    gen, residue = bad
    assert gen == c
    assert not residue.is_zero


def test_unknown_generator_named_in_printing_order():
    # the terms are stored x^3 first; the message names the first unknown
    # generator of the sorted terms, a*y
    a, b = Generator("a", 2, index=0), Generator("b", 5, stage=1, index=1)
    x, y = Generator("x", 2, index=2), Generator("y", 4, index=3)
    dg = Element({Monomial.of(x, 3): F(2), Monomial(((a, 1), (y, 1))): F(1)})
    with pytest.raises(InputError, match="^d\\(b\\) uses the unknown generator 'y'$"):
        FreeDGCA([a, b], {b: dg}, truncation=8)


def test_truncation_refusal(sphere_model):
    with pytest.raises(TruncationError):
        sphere_model.cohomology(9)


def test_sphere_cohomology(sphere_model):
    assert sphere_model.cohomology(2).dimension == 1
    assert sphere_model.cohomology(3).dimension == 0
    assert sphere_model.cohomology(4).dimension == 0
    h2 = sphere_model.cohomology(2)
    assert [str(c.representative) for c in classes(h2)] == ["a"]


def test_class_product_square_vanishes(sphere_model):
    h2 = sphere_model.cohomology(2)
    cls = classes(h2)[0]
    square = class_product(sphere_model, cls, cls)
    assert square.is_zero


def test_class_product_with_zero(sphere_model):
    h2 = sphere_model.cohomology(2)
    zero = sphere_model.cohomology(3).class_of(Element.zero())
    product = class_product(sphere_model, classes(h2)[0], zero)
    assert product.is_zero


def test_decomposable_subspace_sphere(sphere_model):
    # no product of positive-degree classes is nonzero: [a]^2 = [db] = 0
    [a] = classes(sphere_model.cohomology(2))
    assert decomposition(sphere_model.cohomology, a) is None
    assert sphere_model.cohomology(4).dimension == 0
    zero = sphere_model.cohomology(4).class_of(Element.zero())
    assert decomposition(sphere_model.cohomology, zero) == []


def test_decomposables_detect_products():
    # free algebra on two degree-2 classes: H^4 products fill a 3-dim space
    a1 = Generator("a1", 2, index=0)
    a2 = Generator("a2", 2, index=1)
    D = FreeDGCA([a1, a2], {}, truncation=6)
    h4 = D.cohomology(4)
    assert h4.dimension == 3
    for cls in classes(h4):
        witness = decomposition(D.cohomology, cls)
        assert witness is not None
        rebuilt = Element.zero()
        for c, c1, c2 in witness:
            rebuilt = rebuilt + c * (c1.representative * c2.representative)
        assert h4.class_of(rebuilt).coordinates == cls.coordinates


def _check_class_products(cohomology, top):
    """Each product of two basis classes of positive degree, through degree
    ``top``, on codes (`dgca._class_products`) against the class of the
    product of the decoded representatives.  Returns how many nonzero
    products had two odd factors."""
    odd_products = 0
    for m in range(2, top + 1):
        target = cohomology(m)
        for p in range(1, m // 2 + 1):
            left, right = cohomology(p), cohomology(m - p)
            found = {(i, j): coords for i, j, coords in _class_products(target, left, right)}
            for i, c1 in enumerate(classes(left)):
                for j, c2 in enumerate(classes(right)):
                    product = combine(target.cochains, [(1, c1.representative, c2.representative)])
                    expected = target.class_of(product).coordinates
                    coords = found.pop((i, j), {})
                    assert tuple(coords.get(k, F(0)) for k in range(target.dimension)) == expected
                    odd_products += bool(coords) and p % 2 == 1 and (m - p) % 2 == 1
            assert not found, (m, p)
    return odd_products


_ODD_EXAMPLE = (
    # a*b != 0 in degree 6, so b * a = -a*b carries the Koszul sign; a * a = 0
    [("a", 3), ("x", 2), ("b", 3), ("c", 5)], ["a*x + 1/2*c", "2/3*x^3 - b^2"], 10,
)


@settings(max_examples=30, deadline=None)
@given(mixed_parity_presentations())
@example(PresentedAlgebra.from_strings(*_ODD_EXAMPLE))
def test_class_products_on_codes_match_the_element_products(algebra):
    _check_class_products(algebra.graded_component, algebra.truncation)


def test_class_products_on_codes_match_on_a_model_with_odd_generators():
    """The model of the odd example, and a 4-cell wedged onto it, whose u
    meets the degree-3 classes in degree 7."""
    model = build_minimal_model(PresentedAlgebra.from_strings(*_ODD_EXAMPLE), 7)
    assert any(g.is_odd and g.stage for g in model.generators)
    assert _check_class_products(model.dgca.cohomology, 7) > 0
    att = AttachmentModel(model, AlphaFunctional(4, ()))
    assert _check_class_products(att.cohomology, 7) > 0
    # and the example itself has a nonzero product of two odd classes
    algebra = PresentedAlgebra.from_strings(*_ODD_EXAMPLE)
    assert _check_class_products(algebra.graded_component, algebra.truncation) > 0


def test_cohomology_euler_bookkeeping(sphere_model):
    # dim ker + rank = dim of the cochain space, per degree
    for m in range(2, 7):
        source = len(sphere_model.basis(m))
        from sullivan.linalg import RowSpace

        image = RowSpace()
        target_index = {mon: i for i, mon in enumerate(sphere_model.basis(m + 1))}
        for mon in sphere_model.basis(m):
            img = sphere_model.d_monomial(mon)
            if not img.is_zero:
                image.insert({target_index[t]: c for t, c in img.terms()})
        kernel_dim = source - image.rank
        boundaries = RowSpace()
        src_index = {mon: i for i, mon in enumerate(sphere_model.basis(m))}
        for mon in sphere_model.basis(m - 1):
            img = sphere_model.d_monomial(mon)
            if not img.is_zero:
                boundaries.insert({src_index[t]: c for t, c in img.terms()})
        assert sphere_model.cohomology(m).dimension == kernel_dim - boundaries.rank


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_leibniz_identity_random(data):
    a1 = Generator("a1", 2, index=0)
    b1 = Generator("b1", 3, stage=1, index=1)
    b2 = Generator("b2", 3, stage=1, index=2)
    D = FreeDGCA(
        [a1, b1, b2],
        {
            b1: Element.from_monomial(Monomial.of(a1, 2)),
            b2: Element.from_monomial(Monomial.of(a1, 2)) * F(2),
        },
        truncation=12,
    )
    p = data.draw(st.integers(2, 5))
    q = data.draw(st.integers(2, 5))
    x = _random_element(data, D, p)
    y = _random_element(data, D, q)
    sign = -1 if p % 2 else 1
    assert d_of(D, x * y) == d_of(D, x) * y + sign * (x * d_of(D, y))


def reference_leibniz_terms(d, mon):
    """Leibniz rule by `Element` products: sign * e * prefix * d(g) * rest,
    one `Element` per factor g^e of ``mon`` with d(g) != 0.

    ``d`` maps generators to the `Element`s given for their differentials, so
    the rule is independent of the exponent-code tables `FreeDGCA` computes d
    with.
    """
    powers = mon.powers
    prefix_degree = 0
    for idx, (g, e) in enumerate(powers):
        dg = d.get(g, Element.zero())
        if not dg.is_zero:
            sign = -1 if prefix_degree % 2 else 1
            prefix = Element.from_monomial(Monomial(powers[:idx]))
            rest_powers = powers[idx + 1 :]
            if e > 1:
                rest_powers = ((g, e - 1),) + rest_powers
            rest = Element.from_monomial(
                Monomial(tuple(sorted(rest_powers, key=lambda p: p[0].sort_key())))
            )
            yield (sign * e) * (prefix * dg * rest)
        prefix_degree += g.degree * e


def reference_d_monomial(d, mon):
    """d of ``mon``: the sum of its reference Leibniz terms."""
    return sum(reference_leibniz_terms(d, mon), Element.zero())


_A1, _A2 = Generator("a1", 2, index=0), Generator("a2", 2, index=1)
_B1, _B2, _B3 = (Generator(f"b{i}", 3, stage=1, index=1 + i) for i in (1, 2, 3))
_C = Generator("c", 4, stage=1, index=5)
_E = Generator("e", 5, stage=2, index=6)
_H = Generator("h", 8, stage=2, index=7)
_ORACLE_GENS = (_A1, _A2, _B1, _B2, _B3, _C, _E, _H)
# Terms every random d carries, so that each draw has an even generator whose
# d has odd * odd factors (h), an odd generator with d = odd * odd (e), a mixed
# term (c) and a square (b1).
_FORCED_TERMS = {
    _H: Monomial(((_B1, 1), (_B2, 1), (_B3, 1))),
    _C: Monomial(((_A1, 1), (_B2, 1))),
    _E: Monomial(((_B1, 1), (_B3, 1))),
    _B1: Monomial.of(_A1, 2),
}


@st.composite
def leibniz_differentials(draw):
    """A random minimal d on the mixed-parity generators _ORACLE_GENS (d^2 need not vanish).

    Every term of d(g) is a monomial of degree |g| + 1 in the generators
    before g: exactly the terms of word length at least 2, since every
    degree is at least 2 and a linear term sorts after g.
    """
    d = {}
    for i, g in enumerate(_ORACLE_GENS):
        terms = {}
        if g in _FORCED_TERMS:
            terms[_FORCED_TERMS[g]] = draw(coefficients)
        targets = monomial_basis(_ORACLE_GENS[:i], g.degree + 1)
        if targets:
            for mon in draw(st.lists(st.sampled_from(targets), max_size=3)):
                terms[mon] = draw(coefficients)
        d[g] = Element(terms)
    return d


@st.composite
def monomials_of(draw, D):
    """A monomial with exponents up to 3 on even generators."""
    powers = []
    for g in D.gens:
        e = draw(st.sampled_from([0, 1] if g.is_odd else [0, 0, 1, 2, 3]))
        if e:
            powers.append((g, e))
    return Monomial(tuple(powers))


def _d_code_branches(D, mon):
    """The branches of `FreeDGCA._d_code` that d of ``mon`` goes through."""
    code = D.key(mon)
    out = set()
    parity = 0  # as in _d_code
    for i, (p, e) in enumerate(code):
        scale = -e if parity else e
        if D._odd[p]:
            parity ^= e & 1
        dg = D._d_codes[p]
        if not dg:
            continue
        if scale == -1:
            out.add("scale is -1")
        elif scale != 1:
            out.add("scale is neither 1 nor -1")
        if i == 0:
            out.add("empty prefix")
        else:
            out.add("merged with the prefix")
            prefix_odds = {q for q, _ in code[:i] if D._odd[q]}
            if any(prefix_odds.intersection(odds) for _, odds, _ in dg):
                out.add("a term killed by a repeated odd factor")
    return out


def test_d_monomial_matches_reference_leibniz():
    branches = set()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def check(data):
        d = data.draw(leibniz_differentials())
        D = FreeDGCA(_ORACLE_GENS, d, truncation=12)
        # b1 * e: the term b1 * b3 of d(e) repeats the odd prefix factor b1
        mons = [data.draw(monomials_of(D)) for _ in range(4)] + [Monomial(((_B1, 1), (_E, 1)))]
        for mon in mons:
            expected = reference_d_monomial(d, mon)
            assert D.d_monomial(mon) == expected
            decoded = Element(
                {
                    Monomial(tuple((D.gens[p], e) for p, e in code)): c
                    for code, c in D.d_basis(D.key(mon))
                }
            )
            assert decoded == expected
            # _d_code stores each factor's terms as they come: no key repeats
            keys = [m for term in reference_leibniz_terms(d, mon) for m in term.monomials()]
            assert len(keys) == len(set(keys))
            branches.update(_d_code_branches(D, mon))

    check()
    assert branches == {
        "empty prefix",
        "merged with the prefix",
        "a term killed by a repeated odd factor",
        "scale is -1",
        "scale is neither 1 nor -1",
    }


def _random_element(data, D, degree):
    basis = D.basis(degree)
    out = Element.zero()
    if not basis:
        return out
    for mon in data.draw(st.lists(st.sampled_from(basis), max_size=3)):
        out = out + Element.from_monomial(mon, F(data.draw(st.integers(-2, 2)) or 1))
    return out


def test_d_code_takes_no_reflected_fraction_operation(monkeypatch):
    """d over the degree-7 keys of a dense model, whose kill steps give
    fractional d(g), calls neither Fraction.__radd__ nor Fraction.__rmul__."""
    algebra = PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("x3", 2)],
        [
            "2*x1^2 - 3*x1*x2 + x2^2 - x3^2",
            "x1*x3 + 4*x2*x3 - 2*x2^2 + 3*x1^2",
            "x1*x2 - x2*x3 + 2*x3^2",
            "x1^2 + x1*x3 - 3*x2^2",
        ],
        8,
    )
    D = build_minimal_model(algebra, 7).dgca
    calls = []
    for name in ("__radd__", "__rmul__"):
        reflected = getattr(Fraction, name)

        def counted(self, other, name=name, reflected=reflected):
            calls.append(name)
            return reflected(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    values = [c for code in D.keys(7) for c in D._d_code(code).values()]
    assert any(type(c) is Fraction for c in values)
    assert calls == []


def test_class_product_representative_independence():
    a1 = Generator("a1", 2, index=0)
    b1 = Generator("b1", 3, stage=1, index=1)
    D = FreeDGCA(
        [a1, b1], {b1: Element.from_monomial(Monomial.of(a1, 2))}, truncation=10
    )
    h2 = D.cohomology(2)
    cls = classes(h2)[0]
    # perturb the representative by a coboundary
    perturbed = cls.representative  # degree 2: no coboundaries below; use deg 4
    h4 = D.cohomology(4)
    z = h4.class_of(d_of(D, Element.from_generator(b1)))
    assert z.is_zero


def reference_verify_d_squared(gens, d):
    """The first generator with d(d g) != 0 and its residue, by `Element` sums."""
    for g in gens:
        residue = Element.zero()
        for mon, c in d.get(g, Element.zero()).terms():
            residue = residue + c * reference_d_monomial(d, mon)
        if not residue.is_zero:
            return g, residue
    return None


@settings(max_examples=200, deadline=None)
@given(leibniz_differentials())
def test_verify_d_squared_residue_matches_reference(d):
    D = FreeDGCA(_ORACLE_GENS, d, truncation=12)
    assert D.verify_d_squared() == reference_verify_d_squared(_ORACLE_GENS, d)


def test_verify_d_squared_residue_with_odd_and_even_generators():
    # d(c) is closed, d(h) is not: d(d h) mixes signs from odd factors
    # passing each other, and one of its terms dies on b1 * b1 = 0
    d = {
        _B1: Element.from_monomial(Monomial.of(_A1, 2)),
        _B2: Element.from_monomial(Monomial(((_A1, 1), (_A2, 1)))),
        _B3: Element.from_monomial(Monomial.of(_A2, 2)),
        _C: Element(
            {
                Monomial(((_A2, 1), (_B1, 1))): F(1),
                Monomial(((_A1, 1), (_B2, 1))): F(-1),
            }
        ),
        _H: Element(
            {
                Monomial(((_B1, 1), (_B2, 1), (_B3, 1))): F(1),
                Monomial(((_A1, 1), (_B1, 1), (_C, 1))): F(-2),
            }
        ),
    }
    D = FreeDGCA(_ORACLE_GENS, d, truncation=12)
    gen, residue = D.verify_d_squared()
    assert (gen, residue) == reference_verify_d_squared(_ORACLE_GENS, d)
    assert gen == _H
    assert str(residue) == (
        "-a1*a2*b1*b3 - 2*a1^2*b1*b2 + a1^2*b2*b3 - 2*a1^3*c + a2^2*b1*b2"
    )


def test_d_of_a_generator_is_the_element_given_for_it_hand_built():
    # several terms, a Fraction coefficient, odd * odd factors and a
    # generator with d = 0
    d = {
        _B2: F(3, 2) * Element.from_monomial(Monomial(((_A1, 1), (_A2, 1)))),
        _C: Element(
            {
                Monomial(((_A2, 1), (_B1, 1))): F(1),
                Monomial(((_A1, 1), (_B2, 1))): F(-1, 3),
            }
        ),
        _E: -2 * Element.from_monomial(Monomial(((_B1, 1), (_B3, 1)))),
        _H: Element.from_monomial(Monomial(((_B1, 1), (_B2, 1), (_B3, 1)))),
    }
    D = FreeDGCA(_ORACLE_GENS, d, truncation=12)
    for g in _ORACLE_GENS:
        assert D.d_monomial(Monomial.of(g)) == d.get(g, Element.zero()), g.name
        assert d_of(D, Element.from_generator(g)) == d.get(g, Element.zero()), g.name


def test_a_linear_term_is_refused_on_every_route():
    a = Generator("a", 2, index=0)
    b, x = Generator("b", 3, stage=1, index=1), Generator("x", 3, stage=1, index=2)
    c = Generator("c", 4, stage=1, index=3)
    a2 = Element.from_monomial(Monomial.of(a, 2))
    with pytest.raises(InputError, match="^d\\(b\\) has the linear term 'c'; "):
        # a linear term beside a square
        FreeDGCA([a, b, c], {b: a2 + Element.from_generator(c)}, truncation=6)
    D = FreeDGCA([a, b], {b: a2}, truncation=6)
    D.cohomology(4)

    def state():
        return (D.gens, d_on_gens(D), D.keys(4), kept_spaces(D),
                dict(D._position), list(D._degree), list(D._odd), list(D._d_codes))

    before = state()
    with pytest.raises(InputError, match="^d\\(x\\) has the linear term 'c'; "):
        # a linear term alone, on a generator of the batch
        D.extend([x, c], {x: -2 * Element.from_generator(c)})
    assert state() == before
    with pytest.raises(InputError, match="^d\\(x\\) has the linear term 'c'; "):
        D.extend_codes([(x, {((0, 2),): F(1), ((3, 1),): F(-2)}), (c, {})])
    assert state() == before
    # the same batch without its linear term is taken
    D.extend_codes([(x, {((0, 2),): F(1)}), (c, {})])
    assert D.gens == (a, b, x, c)


def _wedge_stage01(wedge3_s2):
    """The wedge model cut to its generators of degree <= 3, as a BigradedModel.

    Its H^5 holds the eight triple-product classes the degree-4 generators
    kill in the full model; their representatives are sums of monomials.
    """
    full = wedge3_s2.model
    gens = [g for g in full.generators if g.degree <= 3]
    return BigradedModel(
        FreeDGCA(gens, {g: full.d_of(g) for g in gens}, full.truncation),
        {g: full.rho[g] for g in gens},
        full.algebra,
    )


def _combination_spaces(wedge3_s2, fatwedge_e6):
    """Fresh (complex, degree) pairs of each kind `CohomologySpace` reads."""
    partial = _wedge_stage01(wedge3_s2)
    fat = fatwedge_e6.model.dgca
    presented = PresentedAlgebra.from_strings(
        [("x", 2), ("y", 2), ("z", 2)], ["x^2 + y*z", "x*y - 2*z^2"], 8
    )
    return [
        (partial.dgca, 5),
        (FreeDGCA(fat.gens, d_on_gens(fat), fat.truncation), 4),
        (AttachmentModel(partial, AlphaFunctional(5, ())), 5),
        (presented, 4),
        (presented, 6),
    ]


def test_combination_is_the_sum_of_class_representatives(wedge3_s2, fatwedge_e6):
    for cochains, m in _combination_spaces(wedge3_s2, fatwedge_e6):
        space = CohomologySpace(cochains, m)
        assert space.dimension >= 2, (cochains, m)
        patterns = [
            {i: F(1) for i in range(space.dimension)},
            {i: F((-1) ** i * (i + 1), 2) for i in range(0, space.dimension, 2)},
            {0: F(3), space.dimension - 1: F(-1, 3), 1: F(0)},
            {},
        ]
        basis = classes(space)
        for coords in patterns:
            expected = combine(cochains, [(c, basis[i].representative) for i, c in coords.items()])
            assert space.class_of(expected).coordinates == tuple(
                coords.get(i, F(0)) for i in range(space.dimension)
            )


def test_classes_read_late_match_classes_read_first(wedge3_s2, fatwedge_e6):
    first = _combination_spaces(wedge3_s2, fatwedge_e6)
    late = _combination_spaces(wedge3_s2, fatwedge_e6)
    for (cochains_a, m), (cochains_b, _) in zip(first, late):
        eager = CohomologySpace(cochains_a, m)
        eager_classes = classes(eager)
        lazy = CohomologySpace(cochains_b, m)
        # class_of before the class list is first read
        for cls in eager_classes:
            assert lazy.class_of(cls.representative).coordinates == cls.coordinates
        assert [(str(c.representative), c.coordinates) for c in classes(lazy)] == [
            (str(c.representative), c.coordinates) for c in eager_classes
        ]
        assert [c.representative for c in classes(lazy)] == [
            c.representative for c in eager_classes
        ]


def reference_coboundaries(cochains, m):
    """Spanning rows of B^m over keys(m), keyed by column index.

    B is d of every cochain of degree m - 1, not the complex's own
    `boundaries`; for a presented algebra, whose d is zero, it is the relation
    ideal's slice, cofactor * relation multiplied out here as `Element`s and
    keyed through the algebra's encoder.
    """
    index = {k: i for i, k in enumerate(cochains.keys(m))}
    if isinstance(cochains, PresentedAlgebra):
        for rel in cochains.relations:
            degree = rel.homogeneous_degree()
            for cofactor in monomial_basis(cochains.generators, m - degree):
                product = Element.from_monomial(cofactor) * rel
                yield {index[t]: c for t, c in cochains.terms_of(product)}
        return
    for k in cochains.keys(m - 1):
        yield {index[t]: c for t, c in cochains.d_basis(k)}


def reference_class_rows(cochains, m):
    """Class rows and pivots by three eliminations, independent of `kernel_rref`.

    The cocycles are the kernel of the constraint rows; each is reduced modulo
    the coboundary RREF, and the results are row-reduced again.
    """
    source = cochains.keys(m)
    constraint_rows = {}
    for j, k in enumerate(source):
        for t, c in cochains.d_basis(k):
            constraint_rows.setdefault(t, {})[j] = c
    cocycles = RowSpace(constraint_rows.values()).kernel(len(source))
    coboundaries = RowSpace(reference_coboundaries(cochains, m))
    classes = RowSpace(coboundaries.reduce(z) for z in cocycles)
    return classes.fraction_rows(), classes.pivots()


def _assert_class_rows_match_reference(cochains, degrees):
    for m in degrees:
        space = CohomologySpace(cochains, m)
        assert (space._class_rows, space._class_pivots) == reference_class_rows(cochains, m), m


_CLOSED_TOP = 7


@st.composite
def closed_differentials(draw):
    """Mixed-parity generators and a random d on them that squares to zero.

    Each d(g) is a random combination of the cocycles of degree |g| + 1 built
    from the generators before g, so d(d g) = 0 holds by construction.
    Returns the generators and d as {generator: Element}.
    """
    degrees = sorted([2, 3, *draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))])
    gens = [Generator(f"g{i}", deg, index=i) for i, deg in enumerate(degrees)]
    d = {}
    for k, g in enumerate(gens):
        below = FreeDGCA(gens[:k], d, truncation=_CLOSED_TOP)
        basis = below.basis(g.degree + 1)
        constraints = {}
        for j, b in enumerate(basis):
            for t, c in below.d_monomial(b).terms():
                constraints.setdefault(t, {})[j] = c
        target = Element.zero()
        for z in RowSpace(constraints.values()).kernel(len(basis)):
            c = draw(st.sampled_from([0, 1, -1, F(3, 2)]))
            for j, v in z.items():
                target = target + Element.from_monomial(basis[j], c * v)
        d[g] = target
    return gens, d


def closed_dgcas():
    """A FreeDGCA on mixed-parity generators whose random d squares to zero."""
    return closed_differentials().map(lambda gens_d: FreeDGCA(*gens_d, _CLOSED_TOP))


@settings(max_examples=150, deadline=None)
@given(closed_dgcas())
def test_class_rows_match_three_pass_reference_free(D):
    assert D.verify_d_squared() is None
    _assert_class_rows_match_reference(D, range(0, _CLOSED_TOP + 1))


@settings(max_examples=100, deadline=None)
@given(closed_differentials())
def test_d_of_a_generator_is_the_element_given_for_it_closed(gens_d):
    gens, d = gens_d
    D = FreeDGCA(gens, d, _CLOSED_TOP)
    for g in gens:
        assert D.d_monomial(Monomial.of(g)) == d[g], g.name


def test_class_rows_match_three_pass_reference_complexes(wedge3_s2, cp2_attach, wedge3_e6):
    # u survives as a multiple of a body class (cp2), u survives as a new
    # class (wedge3-e6, and a 5-cell beside the eight triple-product classes
    # of the cut wedge model), and u is exact (a 3-cell along a1, so d(a1) = u)
    exact = AttachmentModel(
        wedge3_s2.model, AlphaFunctional.build(wedge3_s2.model, 3, [("a1", 1)])
    )
    beside = AttachmentModel(_wedge_stage01(wedge3_s2), AlphaFunctional(5, ()))
    u = AttachmentElement(Element.zero(), F(1))
    cp2, e6 = attachment_of(cp2_attach), attachment_of(wedge3_e6)
    assert not cp2.u_class().is_zero
    assert not e6.u_class().is_zero
    assert not beside.u_class().is_zero
    assert exact.cohomology(3).class_of(u).is_zero
    for attached in (cp2, e6, beside, exact):
        n = attached.n
        _assert_class_rows_match_reference(attached, range(n - 2, n + 1))
    presented = PresentedAlgebra.from_strings(
        [("x", 2), ("y", 2), ("z", 3)], ["x^2 + y^2", "x*y", "x*z - y*z"], 8
    )
    _assert_class_rows_match_reference(presented, range(0, 9))


@settings(max_examples=40, deadline=None)
@given(small_presentations())
def test_class_rows_match_three_pass_reference_presented(data):
    algebra, truncation = data
    _assert_class_rows_match_reference(algebra, range(0, truncation + 1))


# ---------------------------------------------------------------------------
# one growing complex: extend, and the coboundaries handed down


def _pieces(D, m):
    """Everything `extend` must leave as a fresh build has it, in degree m."""
    basis = D.basis(m)
    d_codes = [dict(D.d_basis(D.key(b))) for b in basis]
    space = D.cohomology(m)
    return (basis, d_codes, space._class_rows, space._class_pivots,
            space.coboundaries.fraction_rows())


def _grow(D, data):
    """D rebuilt by `extend` in random batches; yields the complex after each.

    Every space is computed before each extension, so that the extension
    must keep, amend or drop each correctly.
    """
    gens = D.gens
    cuts = sorted(data.draw(st.sets(st.integers(1, len(gens) - 1), max_size=3)))
    bounds = [0, *cuts, len(gens)]
    d = d_on_gens(D)
    grown = FreeDGCA(gens[: bounds[1]], d, _CLOSED_TOP)
    yield grown
    for lo, hi in zip(bounds[1:], bounds[2:]):
        for m in range(_CLOSED_TOP + 1):
            grown.cohomology(m)
        grown.extend(gens[lo:hi], d)
        yield grown


@settings(max_examples=100, deadline=None)
@given(closed_dgcas(), st.data())
def test_extend_matches_a_fresh_complex(D, data):
    for grown in _grow(D, data):
        # a kept space is the one the complex answers with, over its keys now
        for k, space in list(grown._spaces.items()):
            assert space.keys == grown.keys(k) and grown.cohomology(k) is space, k
    assert grown.gens == D.gens and d_on_gens(grown) == d_on_gens(D)
    # in any order, so that a degree can read a space from before the last
    # extension rather than one just made
    for m in data.draw(st.permutations(range(_CLOSED_TOP + 1))):
        assert _pieces(grown, m) == _pieces(D, m), m


@settings(max_examples=100, deadline=None)
@given(closed_dgcas(), st.data())
def test_keys_are_the_codes_of_the_canonical_basis(D, data):
    for grown in _grow(D, data):
        for m in range(_CLOSED_TOP + 2):
            basis = grown.basis(m)
            assert basis == monomial_basis(grown.gens, m)
            assert grown.keys(m) == [grown.key(b) for b in basis]
            # the canonical order, checked without the enumeration: distinct
            # normalised monomials of degree m, as many as the generating
            # series counts, in increasing Monomial.sort_key
            for b in basis:
                assert b.degree == m
                assert all(e == 1 for g, e in b.powers if g.is_odd)
                keys = [g.sort_key() for g, _ in b.powers]
                assert keys == sorted(set(keys))
            order = [b.sort_key() for b in basis]
            assert all(x < y for x, y in zip(order, order[1:])), m
            assert len(basis) == generating_series_dimension(grown.gens, m)


def test_extend_codes_refuses_bad_codes():
    a, b = Generator("a", 2, index=0), Generator("b", 3, stage=1, index=1)
    x = Generator("x", 4, stage=1, index=2)
    D = FreeDGCA([a, b], {b: Element.from_monomial(Monomial.of(a, 2))}, truncation=8)
    D.cohomology(5)

    def state():
        return (D.gens, d_on_gens(D), D.keys(5), kept_spaces(D),
                dict(D._position), list(D._degree), list(D._odd), list(D._d_codes))

    before = state()
    refusals = [
        ([(x, {((0, 2),): F(1)})], "^d\\(x\\) must be homogeneous of degree 5$"),
        ([(x, {((0, 1), (1, 1)): F(1), ((1, 1),): F(1)})],
         "^d\\(x\\) must be homogeneous of degree 5$"),
        ([(x, {((0, 1), (3, 1)): F(1)})], "^d\\(x\\) uses the unknown position 3$"),
        ([(x, {((-1, 1), (1, 1)): F(1)})], "^d\\(x\\) uses the unknown position -1$"),
        ([(x, {((1, 1), (0, 1)): F(1)})],
         "^d\\(x\\) has a code whose positions do not increase$"),
        ([(x, {((0, 1), (0, 1), (0, 1)): F(1)})],
         "^d\\(x\\) has a code whose positions do not increase$"),
        ([(x, {}), (x, {})], "^duplicate generators$"),
        ([(b, {})], "^duplicate generators$"),
        ([(Generator("c", 2, index=5), {})], "^generator 'c' sorts before the existing 'b'$"),
    ]
    for layer, message in refusals:
        with pytest.raises(InputError, match=message):
            D.extend_codes(layer)
        assert state() == before, message
    # a new position may be used by its own batch
    y = Generator("y", 3, stage=2, index=3)  # sorts between b and x
    D.extend_codes([(x, {((0, 1), (2, 1)): F(-2)}), (y, {})])
    assert D.gens == (a, b, y, x)
    assert d_on_gens(D)[x] == -2 * Element.from_monomial(Monomial(((a, 1), (y, 1))))
    assert d_of(D, Element.from_generator(x)) == d_on_gens(D)[x]


def test_extend_codes_refuses_a_kill_layer_term_that_is_not_a_key():
    # positions: a (2), b (3, db = a^2), c (4); keys(6) are a^3 and a*c
    a, b = Generator("a", 2, index=0), Generator("b", 3, stage=1, index=1)
    c = Generator("c", 4, index=2)
    D = FreeDGCA([a, b, c], {b: Element.from_monomial(Monomial.of(a, 2))}, truncation=8)
    for m in range(7):
        D.cohomology(m)
    assert D.keys(6) == [((0, 1), (2, 1)), ((0, 3),)]
    x, y = Generator("x", 5, stage=2, index=3), Generator("y", 5, stage=2, index=4)

    def state():
        return (D.gens, list(D._d_codes), list(D._degree), list(D._odd),
                dict(D._position), list(D._codes), kept_spaces(D), dict(D._spaces))

    before = state()
    refusals = [
        {((0, 1), (1, 1)): F(1)},  # a*b: a key of degree 5
        {((0, 2),): F(1)},  # a^2: degree 4
        {((2, 1), (0, 1)): F(1)},  # c*a: positions decrease
        {((0, 1), (0, 2)): F(1)},  # a*a^2: a position repeats
        {((0, 3),): F(1), ((0, 1), (5, 1)): F(1)},  # an unknown position
        {((1, 2),): F(1)},  # b^2: degree 6, but b is odd
    ]
    message = "^d\\(x\\) has a term that is not a monomial of degree 6$"
    for dx in refusals:
        with pytest.raises(InputError, match=message):
            D.extend_codes([(x, dx), (y, {((0, 3),): F(1)})], kills=[0])
        assert state() == before, dx
    z = Generator("z", 6, stage=2, index=5)
    with pytest.raises(InputError, match="^the generators of a kill step must have one degree$"):
        D.extend_codes([(x, {((0, 3),): F(1)}), (z, {})], kills=[0])
    assert state() == before
    # a layer of keys of degree 6 is taken
    D.extend_codes([(x, {((0, 1), (2, 1)): F(2)}), (y, {((0, 3),): F(-1, 2)})], kills=[])
    assert D.gens[-2:] == (x, y)
    assert d_on_gens(D)[x] == 2 * Element.from_monomial(Monomial(((a, 1), (c, 1))))


def test_only_a_data_batch_with_a_nonzero_d_marks_the_complex():
    """Zero-d batches and vouched kill layers leave ``d_is_data`` unset; the
    first batch that brings a nonzero d(g) as data sets it, and `renamed`
    keeps it."""
    a = Generator("a", 2, index=0)
    D = FreeDGCA([a], {}, truncation=8)
    D.extend([Generator("c", 4, index=1)], {})
    assert D.d_is_data is False
    assert D.keys(6) == [((0, 1), (1, 1)), ((0, 3),)]
    # kill the classes of a^3 and a*c with two degree-5 generators
    x, y = Generator("x", 5, stage=1, index=2), Generator("y", 5, stage=1, index=3)
    D.extend_codes([(x, {((0, 3),): F(1)}), (y, {((0, 1), (1, 1)): F(1)})], kills=[0, 1])
    assert D.d_is_data is False
    assert D.renamed(["p", "q", "r", "s"]).d_is_data is False
    assert PresentedAlgebra.from_strings([("a", 2)], ["a^2"], 6).d_is_data is False
    # the same kind of d as data: a batch with no kills vouch
    z = Generator("z", 7, stage=1, index=4)
    D.extend_codes([(z, {((0, 4),): F(1)})])
    assert D.d_is_data is True
    assert D.renamed(["p", "q", "r", "s", "t"]).d_is_data is True
    D.extend([Generator("w", 8, index=5)], {})
    assert D.d_is_data is True
    b = Generator("b", 3, stage=1, index=1)
    assert FreeDGCA([a, b], {b: Element.from_monomial(Monomial.of(a, 2))}, 8).d_is_data
    algebra = PresentedAlgebra.from_strings([("a", 2)], ["a^2"], 7)
    assert build_minimal_model(algebra, 6).dgca.d_is_data is False


def test_extend_refuses_what_init_refuses():
    a, b = Generator("a", 2, index=0), Generator("b", 3, stage=1, index=1)
    x, y = Generator("x", 4, index=2), Generator("y", 3, stage=1, index=3)
    dx = Element.from_monomial(Monomial(((a, 1), (y, 1))))
    refusals = [
        ([a, a], {}, "^duplicate generators$"),
        ([a, b, x], {x: dx}, "^d\\(x\\) uses the unknown generator 'y'$"),
    ]
    for gens, d, message in refusals:
        with pytest.raises(InputError, match=message):
            FreeDGCA(gens, d, truncation=8)
    D = FreeDGCA([a, b], {b: Element.from_monomial(Monomial.of(a, 2))}, truncation=8)
    D.cohomology(4)
    before = (D.gens, d_on_gens(D), D.basis(4), kept_spaces(D))
    for gens, d, message in [([a], {}, "^duplicate generators$"),
                             ([x, x], {}, "^duplicate generators$"),
                             ([x], {x: dx}, "^d\\(x\\) uses the unknown generator 'y'$")]:
        with pytest.raises(InputError, match=message):
            D.extend(gens, d)
    late = Generator("c", 2, index=5)  # sorts before b
    with pytest.raises(InputError, match="^generator 'c' sorts before the existing 'b'$"):
        D.extend([late], {})
    assert (D.gens, d_on_gens(D), D.basis(4), kept_spaces(D)) == before
    # a batch in any order, whose d uses a generator of the same batch
    D.extend([y, x], {x: dx})
    assert D.gens == (a, b, y, x) and d_on_gens(D)[x] == dx


def _assert_handed_down_rows_are_a_basis(D, degrees):
    """d of the handed-down cochains: independent, and the span of d(basis(k))."""
    for k in degrees:
        D.cohomology(k)
        assert k in D._spaces
        index = {D.key(b): i for i, b in enumerate(D.basis(k + 1))}
        rows = [{index[t]: c for t, c in terms} for terms in D.boundaries(k + 1)]
        assert len(rows) == len(D._spaces[k].complement)
        assert RowSpace(rows).rank == len(rows), k
        full = RowSpace(
            {index[D.key(t)]: c for t, c in D.d_monomial(b).terms()} for b in D.basis(k)
        )
        assert RowSpace(rows).fraction_rows() == full.fraction_rows(), k


def _built(generators, relations, truncation):
    algebra = PresentedAlgebra.from_strings(generators, relations, truncation + 1)
    return build_minimal_model(algebra, truncation).dgca


def test_handed_down_rows_are_a_basis_wedge_and_dense():
    wedge = _built([("a1", 2), ("a2", 2), ("a3", 2)],
                   ["a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3"], 7)
    dense = _built([("x1", 2), ("x2", 2), ("x3", 2)],
                   ["3*x1^2 - x1*x2 + 2*x3^2", "x1*x3 + 4*x2^2 - x2*x3",
                    "-2*x1*x2 + x2*x3 + x3^2"], 7)
    for D in (wedge, dense):
        _assert_handed_down_rows_are_a_basis(D, range(2, D.truncation))


@settings(max_examples=100, deadline=None)
@given(closed_dgcas())
def test_handed_down_rows_are_a_basis_closed(D):
    _assert_handed_down_rows_are_a_basis(D, range(0, _CLOSED_TOP))


def test_extend_keeps_or_drops_the_record():
    # Lambda(a, b), db = a^2; the kept space of degree 6 is what is known of H^6
    a, b = Generator("a", 2, index=0), Generator("b", 3, stage=1, index=1)
    d = {b: Element.from_monomial(Monomial.of(a, 2))}

    def record_after(degree, dx):
        D = FreeDGCA([a, b], d, truncation=9)
        D.cohomology(6)
        x = Generator("x", degree, stage=2, index=2)
        D.extend([x], {x: dx})
        kept = 6 in D._spaces
        assert _pieces(D, 6) == _pieces(FreeDGCA([a, b, x], {**d, x: dx}, truncation=9), 6)
        return kept

    def a_power(e, times=Element.scalar(1)):
        return Element.from_monomial(Monomial.of(a, e)) * times

    assert record_after(6, Element.zero())  # k = |x| and dx = 0
    assert not record_after(6, a_power(2, Element.from_generator(b)))  # dx != 0
    # k = |x| + 1: dx may change B^6, and a plain extend does not vouch for it
    assert not record_after(5, a_power(3))
    assert record_after(7, a_power(4))  # k < |x|
    assert not record_after(4, Element.zero())  # x * a in degree 6


def test_extending_a_built_model_drops_what_it_cannot_vouch_for():
    # the model of Q[a]/(a^3) is a, b with db = a^3; its build leaves a space
    # in every degree.  x two degrees below k = 7 with dx = a^3 adds the cocycle
    # a*b - a*x to Z^7; y of degree 7 with dy = a^4 = d(a*b) adds a*b - y.
    model = _built([("a", 2)], ["a^3"], 9)
    a, b = model.gens
    assert set(model._spaces) == set(range(10))
    a_cubed = Element.from_monomial(Monomial.of(a, 3))
    for degree, dx in [(5, a_cubed), (7, a_cubed * Element.from_generator(a))]:
        D = _built([("a", 2)], ["a^3"], 9)
        for m in range(10):
            D.cohomology(m)
        x = Generator("x", degree, stage=2, index=2)
        D.extend([x], {x: dx})
        fresh = FreeDGCA([a, b, x], {b: a_cubed, x: dx}, truncation=9)
        assert D.cohomology(7).dimension == fresh.cohomology(7).dimension == 1
        for m in range(10):
            assert _pieces(D, m) == _pieces(fresh, m), (degree, m)


@pytest.mark.parametrize(
    "generators,relations",
    [
        ([("a1", 2), ("a2", 2), ("a3", 2)], ["a1^2", "a2^2", "a3^2", "a1*a2", "a1*a3", "a2*a3"]),
        # stage-0 generators above degree 2 extend the complex between kill steps
        ([("x", 2), ("y", 3), ("z", 4), ("w", 5)], ["x^2", "x*y", "x*z - y^2"]),
    ],
    ids=["wedge", "higher-stage-0"],
)
def test_build_hands_down_every_coboundary_basis(monkeypatch, generators, relations):
    # the build starts with H^0, H^1 and H^2 of the empty complex; from H^1
    # on, each H^(m+1) reads the complement of the kept H^m, through the
    # stage-0 and kill extensions in between
    seen = []
    original = FreeDGCA.boundaries

    def spy(self, m):
        seen.append((m, m - 1 in self._spaces))
        return original(self, m)

    monkeypatch.setattr(FreeDGCA, "boundaries", spy)
    _built(generators, relations, 7)
    assert [m for m, _ in seen] == list(range(0, 8))
    assert all(handed for m, handed in seen if m >= 1), seen


# ---------------------------------------------------------------------------
# no reference cycle through a cohomology cache


def test_a_dropped_model_is_freed_by_refcounting():
    """With the cyclic collector off, a dropped model, its algebra and an
    attachment on it are freed as soon as the last reference goes, though
    every cache holds spaces whose classes and coboundaries were read."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        algebra = PresentedAlgebra.from_strings(*_WEDGES[3], 8)
        model = build_minimal_model(algebra, 7)
        fixture = build_fixture("cp2-attach")
        attached = attachment_of(fixture)
        for space in (
            model.dgca.cohomology(5),
            algebra.graded_component(4),
            fixture.algebra.graded_component(4),
            attached.cohomology(attached.n),
            attached.cohomology(attached.n - 1),
        ):
            assert classes(space) is not None and space.coboundaries is not None
        refs = [
            weakref.ref(x)
            for x in (model.dgca, algebra, fixture.model.dgca, fixture.algebra, attached)
        ]
        del algebra, model, fixture, attached, space
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        if enabled:
            gc.enable()
