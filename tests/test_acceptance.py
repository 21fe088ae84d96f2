"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); a failing assertion is the FAIL signal.  Tolerances are
exact: every comparison is rational equality.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan.attachment import (
    AlphaFunctional,
    AttachmentElement,
    AttachmentModel,
)
from sullivan.dgca import FreeDGCA
from sullivan.formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    even_complex_formality,
    formality_verdict,
)
from sullivan.gca import Element, Generator, Monomial
from sullivan.linalg import RowSpace
from sullivan.minimal_model import build_minimal_model
from sullivan.presented import PresentedAlgebra

from conftest import (
    attachment_of,
    class_product,
    classes,
    combine,
    d_of,
    generator,
    hurewicz_vanishes,
    is_special,
    scaled,
    small_presentations,
    twisted_d,
)

F = Fraction

CASES = 200


def _passed(label):
    print(f"ACCEPTANCE {label}: PASS")


# ---------------------------------------------------------------------------
# 1. wedge of three 2-spheres: model shape and quasi-iso oracle


def test_criterion_1_wedge_model(wedge3_s2):
    model, algebra = wedge3_s2.model, wedge3_s2.algebra
    layout = Counter((g.degree, g.stage) for g in model.generators)
    assert layout[(2, 0)] == 3
    assert layout[(3, 1)] == 6
    stage0 = sorted(g.name for g in model.stage_slice(0, 2))
    assert stage0 == ["a1", "a2", "a3"]
    targets = sorted(str(model.d_of(g)) for g in model.generators if g.degree == 3)
    assert targets == ["a1*a2", "a1*a3", "a1^2", "a2*a3", "a2^2", "a3^2"]
    for m in range(0, 6):
        a_dim = algebra.graded_component(m).dimension
        assert model.dgca.cohomology(m).dimension == a_dim
        if 3 <= m <= 5:
            assert a_dim == 0
    _passed("1 (wedge-of-three-spheres model)")


# ---------------------------------------------------------------------------
# 2. six-cell on the wedge: indecomposable u, not formal


def test_criterion_2_wedge_six_cell(wedge3_e6):
    model, alpha, attached = wedge3_e6.model, wedge3_e6.alpha, attachment_of(wedge3_e6)
    k12 = generator(model, "k12")
    assert alpha.value(k12) == 1
    assert hurewicz_vanishes(model, alpha) is True
    assert not attached.u_class().is_zero
    decomposable, _ = attached.u_decomposable()
    assert decomposable is False
    verdict = formality_verdict(model, alpha)
    assert verdict.status == NOT_FORMAL
    assert verdict.clause == "indecomposable-u"
    _passed("2 (six-cell on the wedge is not formal)")


# ---------------------------------------------------------------------------
# 3. the decomposable-but-nonspecial attachment stays inconclusive


def test_criterion_3_fatwedge_six_cell(fatwedge_e6):
    model, alpha, attached = fatwedge_e6.model, fatwedge_e6.alpha, attachment_of(fatwedge_e6)
    targets = {str(model.d_of(g)) for g in model.generators}
    for expected in (
        "x1^2", "x2^2", "x3^2",
        "a1*x1", "a1*x2", "a1*x3",
        "a2*x1", "a2*x2", "a2*x3",
        "a3*x1", "a3*x2", "a3*x3",
        "x1*x2*x3",
    ):
        assert expected in targets
    u = attached.u_class()
    assert not u.is_zero
    xs = [generator(model, n) for n in ("x1", "x2", "x3")]
    xxx = Element.from_monomial(Monomial(tuple((g, 1) for g in xs)))
    minus_xxx = attached.cohomology(6).class_of(AttachmentElement(-1 * xxx))
    assert minus_xxx.coordinates == u.coordinates
    special, violators = is_special(model, alpha)
    assert special is False
    assert any(v.stage == 3 and v.degree == 5 for v in violators)
    verdict = formality_verdict(model, alpha)
    assert verdict.status == INCONCLUSIVE
    _passed("3 (mixed six-cell stays inconclusive)")


# ---------------------------------------------------------------------------
# 4. torsion clause: alpha = 0 gives a formal wedge and one extra class


@pytest.mark.parametrize("n_override", [None])
def test_criterion_4_torsion_clause(cp1, wedge3_e6, fatwedge_e6, n_override):
    for built in (cp1, wedge3_e6, fatwedge_e6):
        model, algebra = built.model, built.algebra
        n = built.fixture.cell or 4
        alpha = AlphaFunctional(n, ())
        verdict = formality_verdict(model, alpha)
        assert verdict.status == FORMAL
        assert verdict.clause == "torsion"
        attached = AttachmentModel(model, alpha)
        assert (
            attached.cohomology(n).dimension
            == algebra.graded_component(n).dimension + 1
        )
    _passed("4 (torsion attachments are formal, H^n grows by one)")


# ---------------------------------------------------------------------------
# 5. Hurewicz-nonvanishing dimension law


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["a1", "a2", "a3"]),
    st.integers(-6, 6).filter(lambda c: c != 0),
    st.booleans(),
)
def test_criterion_5_hurewicz_nonvanishing(name, c, add_more):
    built = _wedge()
    model, algebra = built.model, built.algebra
    pairs = [(name, F(c))]
    if add_more:
        other = next(n for n in ("a1", "a2", "a3") if n != name)
        pairs.append((other, F(1)))
    alpha = AlphaFunctional.build(model, 3, pairs)
    attached = AttachmentModel(model, alpha)
    assert attached.u_class().is_zero
    assert (
        attached.cohomology(2).dimension
        == algebra.graded_component(2).dimension - 1
    )


_WEDGE_CACHE = []


def _wedge():
    if not _WEDGE_CACHE:
        from sullivan.fixtures import build_fixture

        _WEDGE_CACHE.append(build_fixture("wedge3-s2"))
    return _WEDGE_CACHE[0]


def test_criterion_5_pass_line():
    _passed("5 (nonzero Hurewicz image: u dies, H^(n-1) drops by one)")


# ---------------------------------------------------------------------------
# 6. the projective-plane-shaped attachment


def test_criterion_6_cp2(cp2_attach):
    model, alpha, attached = cp2_attach.model, cp2_attach.alpha, attachment_of(cp2_attach)
    verdict = formality_verdict(model, alpha)
    assert verdict.status == FORMAL
    assert verdict.clause == "special-decomposable"
    assert verdict.witness["decomposition"] == ["-1*[a]*[a]"]
    oracle = PresentedAlgebra.from_strings([("a", 2)], ["a^3"], truncation=5)
    dims = [attached.cohomology(m).dimension for m in range(5)]
    assert dims == [oracle.graded_component(m).dimension for m in range(5)]
    assert dims == [1, 0, 1, 0, 1]
    _passed("6 (4-cell on the sphere: formal, u = -[a]^2)")


# ---------------------------------------------------------------------------
# 7. even-complex procedure, k = 1


def test_criterion_7_even_complex():
    A = PresentedAlgebra.from_strings([("a1", 2), ("a2", 2)], [], truncation=5)
    result = even_complex_formality(A, 1, [(4, [("b12", F(1))])])
    assert result.status == FORMAL
    assert all(v.status == FORMAL for v in result.verdicts)
    final = result.final
    assert final.graded_component(2).dimension == 2
    assert final.graded_component(4).dimension == 1
    assert [str(c.representative) for c in classes(final.graded_component(4))] == ["a1*a2"]
    _passed("7 (even 4-cell complex is formal with the right ring)")


# ---------------------------------------------------------------------------
# 8. property suites, >= 200 randomized cases each


@settings(max_examples=CASES, deadline=None)
@given(small_presentations())
def test_criterion_8a_d_squared_after_build(data):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    assert model.dgca.verify_d_squared() is None


def _leibniz_model():
    a1 = Generator("a1", 2, index=0)
    a2 = Generator("a2", 2, index=1)
    b1 = Generator("b1", 3, stage=1, index=2)
    b2 = Generator("b2", 3, stage=1, index=3)
    return FreeDGCA(
        [a1, a2, b1, b2],
        {
            b1: Element.from_monomial(Monomial.of(a1, 2)),
            b2: Element.from_monomial(Monomial(((a1, 1), (a2, 1)))),
        },
        truncation=12,
    )


_LEIBNIZ = _leibniz_model()


def _draw_element(data, dgca, degree):
    basis = dgca.basis(degree)
    out = Element.zero()
    if not basis:
        return out
    for mon in data.draw(st.lists(st.sampled_from(basis), max_size=3)):
        out = out + Element.from_monomial(mon, F(data.draw(st.integers(-3, 3)) or 1))
    return out


@settings(max_examples=CASES, deadline=None)
@given(st.data())
def test_criterion_8b_leibniz(data):
    p = data.draw(st.integers(2, 5))
    q = data.draw(st.integers(2, 5))
    x = _draw_element(data, _LEIBNIZ, p)
    y = _draw_element(data, _LEIBNIZ, q)
    sign = -1 if p % 2 else 1
    assert d_of(_LEIBNIZ, x * y) == d_of(_LEIBNIZ, x) * y + sign * (x * d_of(_LEIBNIZ, y))


@settings(max_examples=CASES, deadline=None)
@given(st.data())
def test_criterion_8c_koszul_commutativity_associativity(data):
    p = data.draw(st.integers(2, 6))
    q = data.draw(st.integers(2, 6))
    r = data.draw(st.integers(2, 6))
    x = _draw_element(data, _LEIBNIZ, p)
    y = _draw_element(data, _LEIBNIZ, q)
    z = _draw_element(data, _LEIBNIZ, r)
    sign = -1 if (p % 2) and (q % 2) else 1
    assert x * y == sign * (y * x)
    assert (x * y) * z == x * (y * z)


@settings(max_examples=CASES, deadline=None)
@given(st.data())
def test_criterion_8e_class_product_representative_independence(data):
    model = _wedge().model
    dgca = model.dgca
    h2 = dgca.cohomology(2)
    cls = data.draw(st.sampled_from(classes(h2)))
    other = data.draw(st.sampled_from(classes(h2)))
    # perturb by a coboundary of degree 2 (none exist) and degree 4 instead:
    # multiply in degree 2 x 2 and perturb the degree-4 result's factors
    perturbation = _draw_element(data, dgca, 1)  # empty in this model
    rep = cls.representative + perturbation
    product_a = class_product(dgca, cls, other)
    alt = h2.class_of(rep)
    product_b = class_product(dgca, alt, other)
    assert product_a.coordinates == product_b.coordinates
    # a genuinely perturbed cocycle in degree 4 of the sphere model
    sphere = _sphere()
    h2s = sphere.cohomology(2)
    a_cls = classes(h2s)[0]
    b_gen = next(g for g in sphere.gens if g.degree == 3)
    scale = F(data.draw(st.integers(-3, 3)) or 1)
    coboundary = d_of(sphere, Element.from_generator(b_gen) * scale)
    h4 = sphere.cohomology(4)
    direct = class_product(sphere, a_cls, a_cls)
    shifted = h4.class_of(a_cls.representative * a_cls.representative + coboundary)
    assert direct.coordinates == shifted.coordinates


_SPHERE_CACHE = []


def _sphere():
    if not _SPHERE_CACHE:
        a = Generator("a", 2, index=0)
        b = Generator("b", 3, stage=1, index=1)
        _SPHERE_CACHE.append(
            FreeDGCA([a, b], {b: Element.from_monomial(Monomial.of(a, 2))}, 8)
        )
    return _SPHERE_CACHE[0]


@settings(max_examples=CASES, deadline=None)
@given(small_presentations(), st.data())
def test_criterion_8f_u_class_iff_stage0_vanishing(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    n = sampler.draw(st.integers(3, truncation))
    pairs = []
    for g in model.generators:
        if g.degree == n - 1:
            c = sampler.draw(st.integers(-2, 2))
            if c:
                pairs.append((g.name, F(c)))
    alpha = AlphaFunctional.build(model, n, pairs)
    attached = AttachmentModel(model, alpha)
    vanishes = all(
        not alpha.value(g) for g in model.stage_slice(0, n - 1)
    )
    assert (not attached.u_class().is_zero) == vanishes


@settings(max_examples=CASES, deadline=None)
@given(
    st.sampled_from(["cp2-attach", "wedge3-e6"]),
    st.integers(-9, 9).filter(lambda c: c != 0),
    st.integers(1, 7),
)
def test_criterion_8g_verdict_scaling_invariance(fixture_id, num, den):
    from sullivan.fixtures import build_fixture

    built = _SCALE_CACHE.setdefault(fixture_id, build_fixture(fixture_id))
    base = formality_verdict(built.model, built.alpha)
    rescaled = formality_verdict(built.model, scaled(built.alpha, F(num, den)))
    assert rescaled.status == base.status
    assert rescaled.clause == base.clause


_SCALE_CACHE: dict = {}


def test_criterion_8_pass_line():
    _passed("8 (randomized property suites, >= 200 cases each)")


# ---------------------------------------------------------------------------
# 9. decomposability agrees with a brute-force product-span oracle


def _raw_cocycles(attached, m):
    """Kernel vectors of the twisted differential, straight from the matrix."""
    dgca = attached.base.dgca
    source = dgca.basis(m)
    u_idx = len(source) if m == attached.n else None
    ncols = len(source) + (1 if u_idx is not None else 0)
    target = dgca.basis(m + 1)
    t_index = {mon: i for i, mon in enumerate(target)}
    u_t = len(target) if m + 1 == attached.n else None
    rows: dict[int, dict[int, F]] = {}
    for j, mon in enumerate(source):
        img = twisted_d(attached, mon)
        for tmon, c in img.body.terms():
            rows.setdefault(t_index[tmon], {})[j] = c
        if img.u:
            rows.setdefault(u_t, {})[j] = img.u
    space = RowSpace()
    for row in rows.values():
        space.insert(row)
    out = []
    for vec in space.kernel(ncols):
        body = Element({source[i]: c for i, c in vec.items() if i < len(source)})
        u = vec.get(u_idx, F(0)) if u_idx is not None else F(0)
        out.append(AttachmentElement(body, u))
    return out


def _brute_force_u_decomposable(attached):
    """Membership of u in span(products of raw cocycles) + coboundaries."""
    n = attached.n
    dgca = attached.base.dgca
    source = dgca.basis(n)
    index = {mon: i for i, mon in enumerate(source)}
    u_idx = len(source)

    def vector_of(x):
        vec = {index[mon]: c for mon, c in x.body.terms()}
        if x.u:
            vec[u_idx] = x.u
        return vec

    span = RowSpace()
    for mon in dgca.basis(n - 1):
        img = twisted_d(attached, mon)
        if not img.is_zero:
            span.insert(vector_of(img))
    for p in range(1, n // 2 + 1):
        for z1 in _raw_cocycles(attached, p):
            for z2 in _raw_cocycles(attached, n - p):
                product = combine(attached, [(1, z1, z2)])
                if not product.is_zero:
                    span.insert(vector_of(product))
    return not span.reduce({u_idx: F(1)})


def test_criterion_9_fixtures(cp2_attach, wedge3_e6, fatwedge_e6):
    for built in (cp2_attach, wedge3_e6, fatwedge_e6):
        attached = attachment_of(built)
        expected, _ = attached.u_decomposable()
        assert _brute_force_u_decomposable(attached) == expected
    _passed("9 (decomposability oracle: bundled examples)")


@settings(max_examples=50, deadline=None)
@given(small_presentations(), st.data())
def test_criterion_9_random_models(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    n = sampler.draw(st.integers(3, truncation))
    stage_positive = [
        g for g in model.generators if g.degree == n - 1 and g.stage >= 1
    ]
    pairs = []
    for g in stage_positive:
        c = sampler.draw(st.integers(-2, 2))
        if c:
            pairs.append((g.name, F(c)))
    alpha = AlphaFunctional.build(model, n, pairs)
    attached = AttachmentModel(model, alpha)
    if attached.u_class().is_zero:
        return
    expected, _ = attached.u_decomposable()
    assert _brute_force_u_decomposable(attached) == expected


def test_criterion_9_pass_line():
    _passed("9 (decomposability oracle: random models)")
