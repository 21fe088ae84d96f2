from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan.attachment import (
    AlphaFunctional,
    AttachmentElement,
    AttachmentModel,
)
from sullivan.dgca import CohomologySpace, FreeDGCA, decomposition
from sullivan.errors import InputError, IntegrityError, TruncationError
from sullivan.gca import Element, Generator, Monomial
from sullivan.minimal_model import BigradedModel, build_minimal_model
from sullivan.presented import PresentedAlgebra

from sullivan.fixtures import build_fixture, fixture_ids, get_fixture

from conftest import (
    attachment_of,
    built_wedge_and_dense_models,
    classes,
    coefficients,
    combine,
    d_of,
    generator,
    reference_decomposition,
    small_presentations,
    twisted_d,
)

F = Fraction


def test_twisted_differential_on_generator(cp2_attach):
    att = attachment_of(cp2_attach)
    b = generator(att.base, "b")
    db = twisted_d(att, Monomial.of(b))
    assert str(db.body) == "a^2"
    assert db.u == 1


def test_zero_alpha_keeps_differential(cp1):
    model = cp1.model
    alpha = AlphaFunctional(4, ())
    att = AttachmentModel(model, alpha)
    for g in model.generators:
        img = twisted_d(att, Monomial.of(g))
        assert img.u == 0
        assert img.body == d_of(model.dgca, Element.from_generator(g))


def test_alpha_on_word_two_monomials_has_no_u_part(wedge3_e6):
    att = attachment_of(wedge3_e6)
    # word length >= 2: the twisted differential agrees with the plain one
    for mon in att.base.dgca.basis(att.n - 1):
        if sum(e for _, e in mon.powers) >= 2:
            img = twisted_d(att, mon)
            assert img.u == 0


def test_alpha_wrong_degree_rejected(cp1):
    with pytest.raises(InputError):
        AlphaFunctional.build(cp1.model, 4, [("a", 1)])


def test_alpha_unknown_names_reported(cp1):
    with pytest.raises(InputError) as err:
        AlphaFunctional.build(cp1.model, 4, [("nope", 1)])
    assert "'nope'" in str(err.value)


def test_two_cell_coerced_to_wedge(cp1):
    alpha = AlphaFunctional.build(cp1.model, 2, [])
    assert alpha.is_zero and not alpha.coerced
    alpha2 = AlphaFunctional.build(cp1.model, 2, [("a", 1)])
    assert alpha2.is_zero and alpha2.coerced


def test_u_exact_against_sphere_relation(cp2_attach):
    att = attachment_of(cp2_attach)
    u = att.u_class()
    assert not u.is_zero
    h4 = att.cohomology(4)
    a = generator(att.base, "a")
    a2 = Element.from_monomial(Monomial.of(a, 2))
    both = h4.class_of(AttachmentElement(-1 * a2))
    assert both.coordinates == u.coordinates
    assert att.cohomology(4).dimension == 1


def test_wedge_attachment_dimension_law(cp1):
    """alpha = 0: dim H^n grows by one, everything else is unchanged."""
    model, algebra = cp1.model, cp1.algebra
    att = AttachmentModel(model, AlphaFunctional(4, ()))
    for m in range(0, 5):
        expected = algebra.graded_component(m).dimension + (1 if m == 4 else 0)
        assert att.cohomology(m).dimension == expected
    assert not att.u_class().is_zero
    assert att.u_body_representative() is None


def test_hurewicz_nonzero_dimension_law(wedge3_s2):
    """alpha hitting a stage-0 class: u dies and H^(n-1) drops by one."""
    model, algebra = wedge3_s2.model, wedge3_s2.algebra
    alpha = AlphaFunctional.build(model, 3, [("a1", 1)])
    att = AttachmentModel(model, alpha)
    assert att.u_class().is_zero
    assert att.cohomology(2).dimension == algebra.graded_component(2).dimension - 1
    for m in (0, 1, 3, 4):
        assert att.cohomology(m).dimension == algebra.graded_component(m).dimension


def test_u_class_zero_when_alpha_hits_stage0_mixed(wedge3_s2):
    model = wedge3_s2.model
    b_name = next(g.name for g in model.generators if g.degree == 3)
    # degree-3 support on a stage-1 generator, with n = 4
    alpha = AlphaFunctional.build(model, 4, [(b_name, 1)])
    att = AttachmentModel(model, alpha)
    assert not att.u_class().is_zero


def test_decomposability_witness_reconstructs(cp2_attach):
    att = attachment_of(cp2_attach)
    dec, witness = att.u_decomposable()
    assert dec
    u = att.u_class()
    target = att.cohomology(att.n)
    rebuilt = combine(att, [(c, c1.representative, c2.representative) for c, c1, c2 in witness])
    assert target.class_of(rebuilt).coordinates == u.coordinates


def test_indecomposable_u(wedge3_e6):
    att = attachment_of(wedge3_e6)
    dec, witness = att.u_decomposable()
    assert not dec and witness is None


def _witness_text(witness):
    """A decomposition witness as (coefficient, left class, right class) text."""
    return None if witness is None else [(c, str(c1), str(c2)) for c, c1, c2 in witness]


def _decompositions_and_references(cohomology, classes):
    """(witness, reference witness) of each class, as text."""
    return [
        (
            _witness_text(decomposition(cohomology, cls)),
            _witness_text(reference_decomposition(cohomology, cls)),
        )
        for cls in classes
    ]


def _every_class(att):
    """The basis classes of an attachment in each degree 2..N, then [u] if nonzero."""
    basis = [cls for m in range(2, att.truncation + 1) for cls in classes(att.cohomology(m))]
    u = att.u_class()
    return basis if u.is_zero else [*basis, u]


def test_decomposition_matches_the_class_of_reference(monkeypatch, capsys):
    from sullivan import attachment, cli

    # the verdict of every fixture with a cell, even mode included, as the CLI
    # runs it: each witness it asks for is checked against the reference
    pairs = []

    def checked(cohomology, cls):
        witness = decomposition(cohomology, cls)
        reference = reference_decomposition(cohomology, cls)
        pairs.append((_witness_text(witness), _witness_text(reference)))
        return witness

    monkeypatch.setattr(attachment, "decomposition", checked)
    cells = [fid for fid in fixture_ids() if get_fixture(fid).cell is not None]
    for fid in cells:
        assert cli.main(["verdict", "--fixture", fid]) in (0, 10, 20), capsys.readouterr().err
    witnesses = [witness for witness, _ in pairs]
    assert any(witnesses) and None in witnesses, pairs  # both decomposable and not
    monkeypatch.undo()
    # and every class of each fixture's attachment outside even mode
    for fid in cells:
        built = build_fixture(fid)
        if built.alpha is not None:
            att = attachment_of(built)
            pairs += _decompositions_and_references(att.cohomology, _every_class(att))
    for witness, reference in pairs:
        assert witness == reference


@settings(max_examples=100, deadline=None)
@given(small_presentations(), st.data())
def test_decomposition_matches_the_class_of_reference_on_drawn_attachments(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    n = sampler.draw(st.integers(3, truncation))
    names = [g.name for g in model.generators if g.degree == n - 1]
    support = sampler.draw(st.lists(st.sampled_from(names), unique=True, max_size=3)) if names else []
    pairs = [(name, sampler.draw(coefficients)) for name in support]
    att = AttachmentModel(model, AlphaFunctional.build(model, n, pairs))
    for witness, reference in _decompositions_and_references(att.cohomology, _every_class(att)):
        assert witness == reference


def test_attachment_elements_compare_by_body_and_u():
    a, b = Generator("a", 2), Generator("b", 2)
    x = Element.from_generator(a)
    assert AttachmentElement(x, F(2)) == AttachmentElement(Element.from_generator(a), F(2))
    assert AttachmentElement(x) == AttachmentElement(x, 0)
    assert AttachmentElement(x, F(1)) != AttachmentElement(x, F(2))
    assert AttachmentElement(x, F(1)) != AttachmentElement(x)
    assert AttachmentElement(x) != AttachmentElement(Element.from_generator(b))
    # an Element is not an attachment element, even with u = 0
    assert (AttachmentElement(x) == x) is False
    assert (x == AttachmentElement(x)) is False
    assert AttachmentElement(x) != x
    with pytest.raises(TypeError):
        hash(AttachmentElement(x))


def test_u_decomposable_requires_nonzero_u(wedge3_s2):
    model = wedge3_s2.model
    att = AttachmentModel(model, AlphaFunctional.build(model, 3, [("a1", 1)]))
    with pytest.raises(InputError):
        att.u_decomposable()


def test_class_of_refuses_a_non_cocycle(cp2_attach, wedge3_s2):
    """No d is taken: a non-cocycle is what leaves a residual in class_of."""
    # b in the model of the 2-sphere, where db = a^2
    sphere = cp2_attach.model
    b = generator(sphere, "b")
    with pytest.raises(InputError, match="element is not a cocycle"):
        sphere.dgca.cohomology(3).class_of(Element.from_generator(b))
    # a base cocycle z of degree n - 1 with alpha(z) != 0: d_tw z = alpha(z) u
    model = wedge3_s2.model
    a1 = Element.from_generator(generator(model, "a1"))
    model.dgca.cohomology(2).class_of(a1)
    wedge_cell = AttachmentModel(model, AlphaFunctional.build(model, 3, [("a1", 2)]))
    with pytest.raises(InputError, match="element is not a cocycle"):
        wedge_cell.cohomology(2).class_of(AttachmentElement(a1))
    # bodies not closed in the base: a degree-3 generator of the wedge, in
    # degree n = 3, and b of the 4-cell on the 2-sphere, where d_tw b = a^2 + u
    w = next(g for g in model.generators if g.degree == 3)
    assert not d_of(model.dgca, Element.from_generator(w)).is_zero
    for att, body in ((wedge_cell, Element.from_generator(w)),
                      (attachment_of(cp2_attach), Element.from_generator(b))):
        with pytest.raises(InputError, match="element is not a cocycle"):
            att.cohomology(3).class_of(AttachmentElement(body))


def test_s3_attachment_kills_everything():
    """Attaching a 4-cell to the 3-sphere along its fundamental class."""
    A = PresentedAlgebra.from_strings([("s", 3)], [], truncation=6)
    model = build_minimal_model(A, 5)
    alpha = AlphaFunctional.build(model, 4, [("s", 1)])
    att = AttachmentModel(model, alpha)
    assert att.u_class().is_zero
    assert att.cohomology(3).dimension == 0
    assert att.cohomology(4).dimension == 0


@settings(max_examples=200, deadline=None)
@given(small_presentations(), st.data())
def test_u_class_vanishing_matches_stage0_support(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    n = sampler.draw(st.integers(3, truncation))
    slice_gens = [g for g in model.generators if g.degree == n - 1]
    pairs = []
    for g in slice_gens:
        c = sampler.draw(st.integers(-2, 2))
        if c:
            pairs.append((g.name, F(c)))
    alpha = AlphaFunctional.build(model, n, pairs)
    att = AttachmentModel(model, alpha)
    stage0_hit = any(
        alpha.value(g) for g in model.generators if g.degree == n - 1 and g.stage == 0
    )
    assert att.u_class().is_zero == stage0_hit


def _hand_built_model(gens, d_on_gens, truncation):
    """A BigradedModel from explicit data; rho and the algebra are inert here."""
    algebra = PresentedAlgebra([], [], truncation + 1)
    return BigradedModel(
        FreeDGCA(gens, d_on_gens, truncation),
        {g: Element.zero() for g in gens},
        algebra,
    )


def test_a_base_with_a_linear_term_is_refused():
    # dx = y: no alpha can meet a linear part, since the base is refused
    x, y = Generator("x", 3, 1, 0), Generator("y", 4, 0, 1)
    with pytest.raises(InputError, match="^d\\(x\\) has the linear term 'y'; "):
        _hand_built_model([x, y], {x: Element.from_generator(y)}, 5)


def test_twisted_d_squared_fails_when_the_base_d_squared_fails():
    # db = a^2, dc = a*b: d(dc) = a^3 != 0, whatever the cell does
    a, b, c = Generator("a", 2, 0, 0), Generator("b", 3, 1, 1), Generator("c", 4, 2, 2)
    d_on_gens = {
        b: Element.from_monomial(Monomial.of(a, 2)),
        c: Element.from_generator(a) * Element.from_generator(b),
    }
    model = _hand_built_model([a, b, c], d_on_gens, 6)
    alpha = AlphaFunctional.build(model, 4, [("b", 1)])
    with pytest.raises(IntegrityError, match=r"at c$"):
        AttachmentModel(model, alpha)


def _sphere_base_extended(degree, positions):
    """The built model of the 2-sphere (a, db = a^2), extended by x of this
    degree whose d is the product of the generators at these positions."""
    model = build_minimal_model(PresentedAlgebra.from_strings([("a", 2)], ["a^2"], 7), 6)
    dx = Element.from_monomial(Monomial.unit())
    for p in positions:
        dx = dx * Element.from_generator(model.generators[p])
    x = Generator("x", degree, 2, len(model.generators))
    model.dgca.extend([x], {x: dx})
    return model


def _hand_bases():
    """Bases whose d came in as data, each with d^2 = 0: (base, cell dimension)."""
    a, b = Generator("a", 2, 0, 0), Generator("b", 3, 1, 1)
    d_on_gens = {b: Element.from_monomial(Monomial.of(a, 2))}
    return {
        "hand-built": (_hand_built_model([a, b], d_on_gens, 6), 4),
        "built-then-extended": (_sphere_base_extended(5, (0, 0, 0)), 6),
        "renamed-hand-built": (_hand_built_model([a, b], d_on_gens, 6).rename({"b": "y"}), 4),
    }


@pytest.mark.parametrize("case", ["hand-built", "built-then-extended", "renamed-hand-built"])
def test_a_base_whose_d_is_data_is_checked_once_per_attachment(case, monkeypatch):
    model, n = _hand_bases()[case]
    assert model.dgca.d_is_data
    calls = []
    original = FreeDGCA.verify_d_squared

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FreeDGCA, "verify_d_squared", counting)
    for _ in range(2):
        AttachmentModel(model, AlphaFunctional(n, ()))
    assert calls == [model.dgca, model.dgca]


def test_a_built_model_extended_with_d_squared_nonzero_is_refused():
    # d(x) = a*b: d(dx) = a^3 != 0, on a base the build had proved closed
    model = _sphere_base_extended(4, (0, 1))
    with pytest.raises(IntegrityError, match=r"at x$"):
        AttachmentModel(model, AlphaFunctional(5, ()))


# ---------------------------------------------------------------------------
# derived spaces: the records of the build, and the twisted spaces read off them


class _Fresh:
    """A complex read with no record: its coboundaries are d of every cochain one degree down."""

    def __init__(self, cochains):
        self.cochains = cochains

    def __getattr__(self, name):
        return getattr(self.cochains, name)

    def boundaries(self, m):
        return (self.cochains.d_basis(k) for k in self.cochains.keys(m - 1))


def _facts(space):
    return (
        space._class_rows,
        space.coboundaries.fraction_rows(),
        set(space.complement),
        [str(c.representative) for c in classes(space)],
    )


def _assert_spaces_are_fresh(cochains, top):
    for m in range(top + 1):
        assert _facts(cochains.cohomology(m)) == _facts(CohomologySpace(_Fresh(cochains), m)), m


def _assert_attachments_are_fresh(model, alphas):
    """The model's spaces, and each attachment's, equal a fresh elimination.

    Returns how many attachments had [u] = 0 and how many [u] != 0.
    """
    _assert_spaces_are_fresh(model.dgca, model.truncation)
    u_zero = u_nonzero = 0
    for n, pairs in alphas:
        attached = AttachmentModel(model, AlphaFunctional.build(model, n, pairs))
        _assert_spaces_are_fresh(attached, model.truncation)
        if attached.u_class().is_zero:
            u_zero += 1
        else:
            u_nonzero += 1
    return u_zero, u_nonzero


@settings(max_examples=25, deadline=None)
@given(built_wedge_and_dense_models(), st.data())
def test_derived_spaces_equal_a_fresh_elimination(model, data):
    alphas = []
    for n in range(3, model.truncation + 1):
        names = [g.name for g in model.generators if g.degree == n - 1]
        support = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=3)) if names else []
        alphas.append((n, [(name, data.draw(coefficients)) for name in support]))
    _assert_attachments_are_fresh(model, alphas)


def test_derived_spaces_equal_a_fresh_elimination_fixtures():
    higher = build_minimal_model(
        PresentedAlgebra.from_strings(
            [("x", 2), ("y", 3), ("z", 4), ("w", 5)], ["x^2", "x*y", "x*z - y^2"], 8
        ),
        7,
    )
    models = [higher] + [build_fixture(fid).model for fid in fixture_ids()]
    counts = [0, 0]
    for model in models:
        # every generator one degree below each cell, with distinct values, so
        # that alpha is nonzero on several classes wherever H^(n - 1) has them
        alphas = [
            (n, [(g.name, F(i + 1)) for i, g in enumerate(model.generators) if g.degree == n - 1])
            for n in range(3, model.truncation + 1)
        ]
        for i, c in enumerate(_assert_attachments_are_fresh(model, alphas)):
            counts[i] += c
    for fid in fixture_ids():
        built = build_fixture(fid)
        if built.alpha is not None:
            _assert_spaces_are_fresh(AttachmentModel(built.model, built.alpha), built.model.truncation)
    assert all(counts), counts  # both [u] = 0 and [u] != 0 occur


def test_attachment_cohomology_keeps_each_space_and_refuses_past_the_truncation(cp2_attach):
    attached = attachment_of(cp2_attach)
    top = attached.truncation
    with pytest.raises(TruncationError, match=f"degree {top + 1} exceeds the truncation {top}"):
        attached.cohomology(top + 1)
    spaces = [attached.cohomology(m) for m in range(top + 1)]
    assert all(attached.cohomology(m) is space for m, space in enumerate(spaces))
    assert top + 1 not in attached._spaces


def test_untwisted_degrees_share_the_base_rows_and_decode_through_the_attachment(
    wedge3_e6, cp2_attach
):
    # outside degrees n - 1 and n the twisted space is built over the base
    # model's lists, not copies, and its classes are attachment elements
    for built in (wedge3_e6, cp2_attach):
        attached, base = attachment_of(built), built.model.dgca
        n = attached.n
        untouched = [m for m in range(base.truncation + 1) if m not in (n - 1, n)]
        assert untouched
        for m in untouched:
            twisted, space = attached.cohomology(m), base.cohomology(m)
            assert twisted._class_rows is space._class_rows, m
            assert twisted.complement is space.complement, m
            assert all(isinstance(c.representative, AttachmentElement) for c in classes(twisted))
            assert all(isinstance(c.representative, Element) for c in classes(space))
            assert [str(c) for c in classes(twisted)] == [str(c) for c in classes(space)], m
