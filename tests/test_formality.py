import gc
import pathlib
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import formality
from sullivan.attachment import AlphaFunctional, AttachmentModel
from sullivan.errors import InputError, IntegrityError
from sullivan.formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    even_complex_formality,
    formality_verdict,
)
from sullivan.fixtures import get_fixture, load_job, parse_job
from sullivan.minimal_model import build_minimal_model
from sullivan.presented import PresentedAlgebra

from conftest import classes, hurewicz_vanishes, is_special, scaled, small_presentations

F = Fraction


def test_hurewicz_vanishes_on_empty_slice(wedge3_e6):
    # H^5(X) = 0 so the degree-5 slice of stage 0 is empty
    assert hurewicz_vanishes(wedge3_e6.model, wedge3_e6.alpha)


def test_hurewicz_fails_on_stage0_support(wedge3_s2):
    model = wedge3_s2.model
    alpha = AlphaFunctional.build(model, 3, [("a1", 1)])
    assert not hurewicz_vanishes(model, alpha)


def test_special_zero_alpha(cp1):
    special, violators = is_special(cp1.model, AlphaFunctional(4, ()))
    assert special and violators == []


def test_special_cp2(cp2_attach):
    special, violators = is_special(cp2_attach.model, cp2_attach.alpha)
    assert special


def test_not_special_fatwedge(fatwedge_e6):
    special, violators = is_special(fatwedge_e6.model, fatwedge_e6.alpha)
    assert not special
    assert any(v.stage == 3 and v.degree == 5 for v in violators)


def test_verdict_cp2(cp2_attach):
    v = formality_verdict(cp2_attach.model, cp2_attach.alpha)
    assert v.status == FORMAL
    assert v.clause == "special-decomposable"
    assert v.witness["decomposition"] == ["-1*[a]*[a]"]


def test_verdict_wedge3_e6(wedge3_e6):
    v = formality_verdict(wedge3_e6.model, wedge3_e6.alpha)
    assert v.status == NOT_FORMAL
    assert v.clause == "indecomposable-u"


def test_verdict_fatwedge(fatwedge_e6):
    v = formality_verdict(fatwedge_e6.model, fatwedge_e6.alpha)
    assert v.status == INCONCLUSIVE
    assert v.clause == "nonspecial-decomposable"
    assert any("g12" in t for t in v.witness["violators"])


def test_verdict_zero_alpha_torsion_clause(cp1):
    v = formality_verdict(cp1.model, AlphaFunctional(4, ()))
    assert v.status == FORMAL and v.clause == "torsion"


def test_verdict_hurewicz_nonzero_inconclusive(wedge3_s2):
    model = wedge3_s2.model
    alpha = AlphaFunctional.build(model, 3, [("a1", 1)])
    v = formality_verdict(model, alpha)
    assert v.status == INCONCLUSIVE
    assert v.clause == "hurewicz-nonzero"


def test_verdict_carries_assumptions(cp2_attach):
    v = formality_verdict(cp2_attach.model, cp2_attach.alpha)
    assert len(v.assumptions) == 2


def test_verdict_serialization(cp2_attach):
    v = formality_verdict(cp2_attach.model, cp2_attach.alpha)
    payload = v.to_json()
    assert payload["status"] == "Formal"
    assert set(payload) == {"status", "clause", "witness", "assumptions"}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["cp2-attach", "wedge3-e6"]), st.integers(-5, 5))
def test_verdict_invariant_under_scaling(fixture_id, c):
    # the status never changes when alpha is scaled by a nonzero rational
    from sullivan.fixtures import build_fixture

    built = _CACHE.setdefault(fixture_id, build_fixture(fixture_id))
    if c == 0:
        return
    base = formality_verdict(built.model, built.alpha)
    rescaled = formality_verdict(built.model, scaled(built.alpha, F(c, 3)))
    assert rescaled.status == base.status
    assert rescaled.clause == base.clause


_CACHE: dict = {}


# ---------------------------------------------------------------------------
# even-complex mode


def test_even_complex_two_spheres():
    A = PresentedAlgebra.from_strings([("a1", 2), ("a2", 2)], [], truncation=5)
    result = even_complex_formality(A, 1, [(4, [("b12", F(1))])])
    assert result.status == FORMAL
    assert [v.status for v in result.verdicts] == [FORMAL]
    final = result.final
    assert final.graded_component(2).dimension == 2
    assert final.graded_component(4).dimension == 1
    assert [str(c.representative) for c in classes(final.graded_component(4))] == ["a1*a2"]


def test_even_complex_cp2():
    A = PresentedAlgebra.from_strings([("a", 2)], [], truncation=5)
    result = even_complex_formality(A, 1, [(4, [("b", F(1))])])
    assert result.status == FORMAL
    final = result.final
    assert [final.graded_component(m).dimension for m in range(5)] == [1, 0, 1, 0, 1]


def test_even_complex_rejects_wrong_cell_dimension():
    A = PresentedAlgebra.from_strings([("a", 2)], [], truncation=5)
    with pytest.raises(InputError) as err:
        even_complex_formality(A, 1, [(6, [])])
    assert "4k" in str(err.value)


def test_even_complex_rejects_bad_generators():
    A = PresentedAlgebra.from_strings([("a", 2), ("w", 4)], [], truncation=5)
    with pytest.raises(InputError):
        even_complex_formality(A, 1, [(4, [])])


def test_even_complex_torsion_cell_then_stop():
    A = PresentedAlgebra.from_strings([("a1", 2), ("a2", 2)], [], truncation=5)
    result = even_complex_formality(A, 1, [(4, []), (4, [("b12", F(1))])])
    assert result.verdicts[0].status == FORMAL
    assert result.verdicts[0].clause == "torsion"
    assert result.verdicts[1].status == INCONCLUSIVE
    assert result.verdicts[1].clause == "base-not-established"
    # the torsion cell ends the chain: final is still the wedge skeleton
    final = result.final
    assert [final.graded_component(m).dimension for m in range(5)] == [1, 0, 2, 0, 0]


def test_even_complex_two_cells_sequential():
    """S^2 x S^2 first, then one more 4-cell along the new skeleton model."""
    A = PresentedAlgebra.from_strings([("a1", 2), ("a2", 2)], [], truncation=5)
    first = even_complex_formality(A, 1, [(4, [("b12", F(1))])])
    # the second round's model kills only a1^2 and a2^2, so its stage-1
    # generators are b-aliased against those targets
    result = even_complex_formality(
        A, 1, [(4, [("b12", F(1))]), (4, [("b1", F(1))])]
    )
    assert [v.status for v in result.verdicts] == [FORMAL, FORMAL]
    final = result.final
    assert final.graded_component(4).dimension == 2


def test_even_fixture_cells():
    fx = get_fixture("even-4k")
    [section] = parse_job(fx.text).attaches
    result = even_complex_formality(
        load_job(fx.text).algebra, fx.even_half_degree, [(section.cell, section.pairs)]
    )
    assert result.status == FORMAL


_CHAIN = (pathlib.Path(__file__).parent / "golden" / "even_chain.job").read_text(encoding="utf-8")


def _chain_cells():
    return [(section.cell, section.pairs) for section in parse_job(_CHAIN).attaches]


@pytest.mark.parametrize(
    "cells,relations",
    [(1, ["a1^2", "a2^2"]), (2, ["a2^2"]), (3, [])],
)
def test_even_chain_prefix_relations(cells, relations):
    """Each prefix of the chain presents the cohomology it has built."""
    result = even_complex_formality(load_job(_CHAIN).algebra, 1, _chain_cells()[:cells])
    assert [v.status for v in result.verdicts] == [FORMAL] * cells
    assert [str(rel) for rel in result.final.relations] == relations


def test_even_mode_keeps_no_intermediate_presentation(monkeypatch):
    """With the cyclic collector off, only the final presentation of the
    three-cell chain outlives the call."""
    synthesize = formality._synthesize_presentation
    refs = []

    def recording(*args):
        algebra = synthesize(*args)
        refs.append(weakref.ref(algebra))
        return algebra

    monkeypatch.setattr(formality, "_synthesize_presentation", recording)
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = even_complex_formality(load_job(_CHAIN).algebra, 1, _chain_cells())
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None, None, result.final]
    finally:
        if enabled:
            gc.enable()


def test_even_slice_check_names_the_offending_stage():
    # a degree-3 class of A is a stage-0 generator in degree 4k - 1 for k = 1
    odd = PresentedAlgebra.from_strings([("a", 2), ("e", 3)], [], truncation=5)
    with pytest.raises(IntegrityError, match="^stage-0 generators in degree 4k-1"):
        formality._check_even_slices(build_minimal_model(odd, 4), 1)
    # the wedge of two 2-spheres has stage-5 generators in degree 7 (k = 2)
    wedge = PresentedAlgebra.from_strings(
        [("a1", 2), ("a2", 2)], ["a1^2", "a1*a2", "a2^2"], truncation=9
    )
    with pytest.raises(IntegrityError, match="^stage >= 2 generators in degree 4k-1"):
        formality._check_even_slices(build_minimal_model(wedge, 8), 2)


@settings(max_examples=50, deadline=None)
@given(small_presentations(), st.data())
def test_hurewicz_matches_u_class_on_random_models(data, sampler):
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
    att = AttachmentModel(model, alpha)
    assert hurewicz_vanishes(model, alpha) == (not att.u_class().is_zero)
