import copy
import itertools
import json
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sullivan import dgca, linalg, minimal_model
from sullivan.dgca import FreeDGCA
from sullivan.errors import InputError, IntegrityError, TruncationError
from sullivan.expr import parse_element
from sullivan.fixtures import build_fixture, fixture_ids, get_fixture, load_job
from sullivan.gca import Element, Generator, Monomial, monomial_basis, monomial_codes
from sullivan.minimal_model import BigradedModel, build_minimal_model, verify_standard
from sullivan.presented import PresentedAlgebra

from conftest import (
    built_wedge_and_dense_models,
    classes,
    code_rho_of,
    d_of,
    dense_quadratic_presentations,
    elements_of,
    generator,
    kept_spaces,
    pure_part,
    reference_kill_step,
    reference_rho_of,
    small_presentations,
    stage_rho,
    substitute,
)

F = Fraction


def test_sphere_model(cp1):
    model = cp1.model
    names = {(g.name, g.degree, g.stage) for g in model.generators}
    assert names == {("a", 2, 0), ("b", 3, 1)}
    b = generator(model, "b")
    assert str(model.d_of(b)) == "a^2"
    # no more generators through degree 4, and the quasi-iso oracle holds
    for m in range(0, 5):
        assert model.dgca.cohomology(m).dimension == cp1.algebra.graded_component(m).dimension


def test_wedge_model_stage_layout(wedge3_s2):
    model = wedge3_s2.model
    layout = Counter((g.degree, g.stage) for g in model.generators)
    assert layout[(2, 0)] == 3
    assert layout[(3, 1)] == 6
    targets = sorted(
        str(model.d_of(g)) for g in model.generators if g.degree == 3
    )
    assert targets == ["a1*a2", "a1*a3", "a1^2", "a2*a3", "a2^2", "a3^2"]


def test_wedge_model_quasi_iso(wedge3_s2):
    model, algebra = wedge3_s2.model, wedge3_s2.algebra
    for m in range(0, 6):
        assert (
            model.dgca.cohomology(m).dimension
            == algebra.graded_component(m).dimension
        )


def test_fatwedge_contains_expected_differentials(fatwedge_e6):
    model = fatwedge_e6.model
    targets = {str(model.d_of(g)) for g in model.generators if g.stage >= 1}
    for expected in ("x1^2", "x2^2", "x3^2", "a1*x2", "a3*x1", "x1*x2*x3"):
        assert expected in targets
    z = generator(model, "z")
    assert z.stage == 1 and z.degree == 5
    assert str(model.d_of(z)) == "x1*x2*x3"


def test_model_requires_validated_presentation():
    bad = PresentedAlgebra.from_strings([("a", 2), ("b", 2)], ["a + a*b"], 6)
    with pytest.raises(InputError):
        build_minimal_model(bad, 4)


def test_model_requires_algebra_headroom():
    A = PresentedAlgebra.from_strings([("a", 2)], ["a^2"], truncation=4)
    with pytest.raises(TruncationError):
        build_minimal_model(A, 4)  # needs data through degree 5


def test_verify_standard_on_built_models(wedge3_s2, fatwedge_e6):
    assert verify_standard(wedge3_s2.model) == []
    assert verify_standard(fatwedge_e6.model) == []


def _stage2_perturbation(model):
    """A nonzero w in Lambda(V_0).Lambda^+(V_1) matching a stage-2 generator."""
    for gen in model.generators:
        if gen.stage < 2:
            continue
        low = [g for g in model.generators if g.stage <= 1]
        candidates = [
            mon
            for mon in monomial_basis(low, gen.degree)
            if mon.max_stage() == 1
        ]
        for mon in candidates:
            w = Element.from_monomial(mon)
            if not d_of(model.dgca, w).is_zero:
                return gen, w
    return None, None


def test_verify_standard_names_a_perturbed_generator(wedge3_e6):
    # gen -> gen + w, w in Lambda(V_0).Lambda^+(V_1): d(gen) gains the pure part d(w)
    model = wedge3_e6.model
    gen, w = _stage2_perturbation(model)
    assert gen is not None
    perturbed = substitute(model, gen, w)
    # the perturbed model is a valid model but no longer standard
    assert perturbed.verify() == []
    assert any(gen.name in v for v in verify_standard(perturbed))


def test_a_built_model_is_not_checked_again_and_a_hand_made_one_is(
    wedge3_e6, monkeypatch, capsys
):
    """A verdict runs `verify_standard` on no built model, renamed or not, and
    on each hand-made one; a hand-made model that is not standard is refused."""
    from sullivan import cli, formality

    calls = []
    check = formality.verify_standard

    def counting(model):
        calls.append(model)
        return check(model)

    monkeypatch.setattr(formality, "verify_standard", counting)
    model, alpha = wedge3_e6.model, wedge3_e6.alpha
    assert model.built and model.rename({}).built
    verdict = formality.formality_verdict(model, alpha).to_json()
    assert cli.main(["verdict", "--fixture", "wedge3-e6", "--json"]) in (0, 10, 20)
    assert json.loads(capsys.readouterr().out)["status"] == verdict["status"]
    assert calls == []
    # the same model by hand: checked once, and the verdict is the same
    hand_made = BigradedModel(model.dgca, dict(model.rho), model.algebra)
    assert not hand_made.built
    assert formality.formality_verdict(hand_made, alpha).to_json() == verdict
    assert calls == [hand_made]
    gen, w = _stage2_perturbation(model)
    perturbed = substitute(model, gen, w)
    with pytest.raises(InputError, match=f"^the model is not standard: d\\({gen.name}\\)"):
        formality.formality_verdict(perturbed, alpha)
    assert calls == [hand_made, perturbed]


def test_stage1_only_model_standard(cp1):
    assert verify_standard(cp1.model) == []


def test_the_kill_step_refuses_a_pure_monomial_whose_class_is_not_pure():
    # a, x of stage 0, v1, v2 of stage 1 (dv = a^2) and w of stage 2 with the
    # pure term a*x in dw = a*v1 - a*v2 + a*x.  In degree 5 the class of the
    # pure a*x is minus that of a*v1 - a*v2, the one class, whose pivot is not
    # pure: P is not inside P_c, and the kill step must refuse it.
    a, x = Generator("a", 2), Generator("x", 3, 0, 1)
    v1, v2, w = Generator("v1", 3, 1, 2), Generator("v2", 3, 1, 3), Generator("w", 4, 2, 4)
    gens = {g.name: g for g in (a, x, v1, v2, w)}
    d = {v1: parse_element("a^2", gens), v2: parse_element("a^2", gens),
         w: parse_element("a*v1 - a*v2 + a*x", gens)}
    model = FreeDGCA((a, x, v1, v2, w), d, 6)
    h_space = model.cohomology(5)
    assert [str(model.element_of({key: 1})) for key in h_space.keys] == ["a*x", "a*v1", "a*v2"]
    assert h_space._class_rows == [{1: F(1), 2: F(-1)}]
    algebra = PresentedAlgebra.from_strings([("a", 2), ("x", 3)], ["a^2"], truncation=6)
    message = f"the class of the pure code {h_space.keys[0]} is not pure"
    with pytest.raises(IntegrityError, match=re.escape(message)):
        minimal_model._kill_step(model, h_space, algebra.graded_component(5))


def test_the_kill_step_refuses_a_pure_monomial_that_is_not_a_cocycle():
    # b of stage 0 with db = a^2 breaks fact (a): d(a*b) = a^3.  The class of
    # a*v (v of stage 1, dv = 0) is a target, so the kill step reads the pure
    # monomials and must refuse a*b.
    a, b, v = Generator("a", 2), Generator("b", 3, 0, 1), Generator("v", 3, 1, 2)
    model = FreeDGCA((a, b, v), {b: parse_element("a^2", {"a": a})}, 6)
    h_space = model.cohomology(5)
    assert [str(model.element_of({key: 1})) for key in h_space.keys] == ["a*b", "a*v"]
    algebra = PresentedAlgebra.from_strings([("a", 2), ("b", 3)], ["a^2"], truncation=6)
    with pytest.raises(IntegrityError, match="the pure monomial a\\*b is not a cocycle"):
        minimal_model._kill_step(model, h_space, algebra.graded_component(5))


def test_the_kill_step_refuses_a_stage_1_row_outside_the_pure_classes():
    # Class rows that claim the coboundary a*b = dc as a class: rho* is zero
    # (A^4 = 0), so its pure class position is in the stage-1 layer, but no
    # pure monomial's class reaches it, and the layer has no solution.
    a, b, c = Generator("a", 2), Generator("b", 2, 0, 1), Generator("c", 3, 0, 2)
    model = FreeDGCA((a, b, c), {c: parse_element("a*b", {"a": a, "b": b})}, 5)
    assert [str(model.element_of({key: 1})) for key in model.keys(4)] == ["a*b", "a^2", "b^2"]
    h_space = dgca.CohomologySpace.from_class_rows(model, 4, [{0: F(1)}, {1: F(1)}, {2: F(1)}], [])
    algebra = PresentedAlgebra.from_strings([("a", 2), ("b", 2)], ["a^2", "a*b", "b^2"], 5)
    with pytest.raises(IntegrityError, match="pure kernel class lost its pure representative"):
        minimal_model._kill_step(model, h_space, algebra.graded_component(4))


def test_the_kill_step_refuses_a_non_pure_class_row_with_a_pure_term():
    # a, e of stage 0 and v of stage 1 (dv = a^3): the degree-7 keys are a*v,
    # then the pure a^2*e.  A class row with its pivot at a*v and a pure term
    # at a^2*e breaks the split the kill step rests on; the class of a^2*e is
    # the pure class row, so the target guard must refuse it.
    a, e, v = Generator("a", 2), Generator("e", 3, 0, 1), Generator("v", 5, 1, 2)
    model = FreeDGCA((a, e, v), {v: Element.from_monomial(Monomial.of(a, 3))}, 8)
    assert [str(model.element_of({key: 1})) for key in model.keys(7)] == ["a*v", "a^2*e"]
    h_space = dgca.CohomologySpace.from_class_rows(model, 7, [{0: F(1), 1: F(1)}, {1: F(1)}], [])
    algebra = PresentedAlgebra.from_strings([("a", 2), ("e", 3)], ["a^2"], truncation=8)
    with pytest.raises(
        IntegrityError, match="a kill target outside the stage-1 layer has a pure term"
    ):
        minimal_model._kill_step(model, h_space, algebra.graded_component(7))


def test_rename_roundtrip(cp1):
    model = cp1.model
    renamed = model.rename({"b": "relation_killer"})
    names = {g.name for g in renamed.generators}
    assert "relation_killer" in names and "b" not in names
    back = renamed.rename({"relation_killer": "b"})
    assert {g.name for g in back.generators} == {g.name for g in model.generators}
    with pytest.raises(InputError):
        model.rename({"b": "a"})


@settings(max_examples=200, deadline=None)
@given(small_presentations())
def test_built_models_satisfy_invariants(data):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    assert model.dgca.verify_d_squared() is None
    # minimal: every term of every d(g) has word length at least 2
    assert all(sum(e for _, e in code) >= 2 for _, dg in model.dgca.d_codes() for code, _ in dg)
    assert verify_standard(model) == []
    assert model.verify() == []
    # the kill step's lemma: a class representative is either Lambda(V_0)-pure
    # or has no pure term, so no stage >= 2 differential has a pure term
    for m in range(truncation + 1):
        for cls in classes(model.dgca.cohomology(m)):
            kinds = {mon.max_stage() == 0 for mon in cls.representative.monomials()}
            assert len(kinds) <= 1, (m, str(cls))
    for g in model.generators:
        if g.stage >= 2:
            assert all(mon.max_stage() > 0 for mon in model.d_of(g).monomials()), g.name


# ---------------------------------------------------------------------------
# elimination by grading blocks: the same model as a build with no grade table


def _ungraded_build(algebra, truncation):
    """The model built with its grade table dropped after every batch, so
    that every degree is eliminated whole."""
    extend_codes = FreeDGCA.extend_codes

    def ungraded(self, *args, **kwargs):
        extend_codes(self, *args, **kwargs)
        self._grade = None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FreeDGCA, "extend_codes", ungraded)
        return build_minimal_model(algebra, truncation)


def _assert_homogeneous(model):
    """Every term of every d(g) has the grade of g, in the model and after `rename`."""
    renamed = model.rename({g.name: g.name + "_r" for g in model.generators})
    assert renamed.dgca._grade is model.dgca._grade
    for built in (model, renamed):
        grade = built.dgca._grade
        assert len(grade) == len(built.generators)
        for g, p, dg in zip(built.generators, itertools.count(), built.dgca._d_codes):
            assert {sum(e * grade[q] for q, e in code) for code, _ in dg} <= {grade[p]}, g.name


def _assert_chunked_build_is_the_ungraded_one(algebra, truncation, chunk=None):
    """The build, at the chunk size ``chunk`` (the default when None), has the
    generator table of the ungraded build and homogeneous d(g); returns the
    largest number of chunks that one degree's elimination used."""
    chunks, used = dgca._chunks, [1]

    def counted(*args):
        out = chunks(*args)
        used.append(len(out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(dgca, "INDEX_RANK", chunk)
        patch.setattr(dgca, "_chunks", counted)
        model = build_minimal_model(algebra, truncation)
    reference = _ungraded_build(algebra, truncation)
    assert reference.dgca._grade is None
    assert (model.generators, model.dgca._d_codes) == (
        reference.generators, reference.dgca._d_codes)
    _assert_homogeneous(model)
    return max(used)


def test_chunked_builds_match_ungraded_builds_at_scale(monkeypatch):
    """The r = 3, N = 9 wedge, and the dense draw of ``scripts/bench.py``,
    whose degree 8 falls into two chunks, at the default chunk size."""
    gens = [(f"a{i}", 2) for i in range(1, 4)]
    rels = [f"a{i}*a{j}" for i in range(1, 4) for j in range(i, 4)]
    wedge = PresentedAlgebra.from_strings(gens, rels, 10)
    assert _assert_chunked_build_is_the_ungraded_one(wedge, 9) > 1
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    dense = PresentedAlgebra.from_strings(
        *workloads._dense_presentation(4, 8, random.Random(3)), 9)
    assert dense._grades == [1, 1, 1, 1]  # the letter count
    assert _assert_chunked_build_is_the_ungraded_one(dense, 8) > 1


@pytest.mark.parametrize("fixture_id", fixture_ids())
def test_chunked_builds_match_ungraded_builds_on_the_fixtures(fixture_id):
    """One grading block per chunk, the most chunks a degree can take."""
    job = load_job(get_fixture(fixture_id).text, fixture_id=fixture_id)
    _assert_chunked_build_is_the_ungraded_one(job.algebra, job.spec.truncation, chunk=1)


@settings(max_examples=60, deadline=None)
@given(small_presentations())
def test_chunked_builds_match_ungraded_builds_random(data):
    _assert_chunked_build_is_the_ungraded_one(*data, chunk=1)


@settings(max_examples=60, deadline=None)
@given(small_presentations())
def test_built_models_are_quasi_isomorphic(data):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    for m in range(0, truncation + 1):
        assert (
            model.dgca.cohomology(m).dimension
            == algebra.graded_component(m).dimension
        ), f"H^{m} mismatch"


@settings(max_examples=60, deadline=None)
@given(small_presentations(), st.data())
def test_rho_is_multiplicative_on_samples(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    degrees = [g.degree for g in model.generators]
    if not degrees:
        return
    p = sampler.draw(st.sampled_from(degrees))
    q = sampler.draw(st.sampled_from(degrees))
    if p + q > truncation:
        return
    xs = model.dgca.basis(p)
    ys = model.dgca.basis(q)
    if not xs or not ys:
        return
    x = Element.from_monomial(sampler.draw(st.sampled_from(xs)))
    y = Element.from_monomial(sampler.draw(st.sampled_from(ys)))
    lhs = code_rho_of(model, x * y)
    rhs = algebra.product(code_rho_of(model, x), code_rho_of(model, y))
    assert lhs == rhs


# (generators, relations, algebra truncation): A^m != 0 in several degrees
_RHO_PRESENTATIONS = {
    "cp3": ([("a", 2)], ["a^4"], 8),
    "s2xs2": ([("a", 2), ("b", 2)], ["a^2", "b^2"], 8),
    "cp2xs3": ([("a", 2), ("c", 3)], ["a^3"], 8),
}


def _rho_models(algebra):
    """A built model, a renamed copy, and a copy whose rho is not monomial."""
    model = build_minimal_model(algebra, algebra.truncation - 1)
    yield model
    yield model.rename({g.name: f"r_{g.name}" for g in model.generators})
    evens = [g for g in model.generators if g.stage == 0 and g.degree == 2]
    if len(evens) >= 2:
        # gen -> gen + other: rho(gen) becomes a sum of two classes
        substituted = substitute(model, evens[0], Element.from_generator(evens[1]))
        assert len(list(substituted.rho[evens[0]].terms())) == 2
        yield substituted


def _check_rho_against_reference(model, data):
    for m in range(0, model.truncation + 1):
        x = data.draw(elements_of(model.dgca, m, max_terms=4))
        expected = reference_rho_of(model.rho, model.algebra, x)
        assert code_rho_of(model, x) == expected, f"degree {m}: {x}"
    for g in model.generators:
        dg = model.d_of(g)
        assert code_rho_of(model, dg) == reference_rho_of(model.rho, model.algebra, dg)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_RHO_PRESENTATIONS)), st.data())
def test_rho_of_matches_stepwise_reduction(name, data):
    gens, rels, truncation = _RHO_PRESENTATIONS[name]
    algebra = PresentedAlgebra.from_strings(gens, rels, truncation)
    nonzero = [m for m in range(2, truncation + 1) if algebra.graded_component(m).dimension]
    assert len(nonzero) >= 2
    for model in _rho_models(algebra):
        _check_rho_against_reference(model, data)


@settings(max_examples=25, deadline=None)
@given(dense_quadratic_presentations(), st.data())
def test_rho_of_matches_stepwise_reduction_dense(algebra, data):
    for model in _rho_models(algebra):
        _check_rho_against_reference(model, data)


# ---------------------------------------------------------------------------
# dimension oracles that do not reuse the construction


def _graded_witt_numbers(r, top):
    """l_k = dim L_k, k = 1..top, of the free graded Lie algebra on r
    degree-1 generators (the homotopy Lie algebra of a wedge of r 2-spheres).

    Taking logarithms of the PBW identity
    prod_{k odd} (1 + t^k)^(l_k) / prod_{k even} (1 - t^k)^(l_k) = 1 / (1 - r t)
    and comparing n times the coefficients of t^n gives
    sum_{k | n} k l_k e(k, n/k) = r^n, with e(k, j) = (-1)^(j+1) for odd k
    and e(k, j) = 1 for even k.
    """
    dims = {}
    for n in range(1, top + 1):
        known = sum(
            k * dims[k] * (1 if k % 2 == 0 or (n // k) % 2 else -1)
            for k in range(1, n) if n % k == 0
        )
        assert (r ** n - known) % n == 0
        dims[n] = (r ** n - known) // n
    return [dims[k] for k in range(1, top + 1)]


def test_graded_witt_numbers_by_hand():
    # one odd generator x: L = span{x, [x, x]}; two: 2, 3 ([x,x], [x,y], [y,y]), 2
    assert _graded_witt_numbers(1, 4) == [1, 1, 0, 0]
    assert _graded_witt_numbers(2, 3) == [2, 3, 2]


@pytest.mark.parametrize("r,n", [(2, 11), (3, 9)])
def test_wedge_of_two_spheres_has_witt_many_generators(r, n):
    gens = [(f"a{i}", 2) for i in range(1, r + 1)]
    rels = [f"a{i}*a{j}" for i in range(1, r + 1) for j in range(i, r + 1)]
    model = build_minimal_model(PresentedAlgebra.from_strings(gens, rels, n + 1), n)
    counts = Counter(g.degree for g in model.generators)
    # dim V^m = l_(m-1) for m < N; degree N holds no generators
    witt = _graded_witt_numbers(r, n - 2)
    assert [counts[m] for m in range(2, n)] == witt
    assert counts[n] == 0 and set(counts) <= set(range(2, n + 1))


def _koszul_dual_dimensions(k, relations, top):
    """l_n = dim L_n, n = 1..top, for A = Q[x_0..x_(k-1)]/(x_i x_j : (i, j) in
    relations) with |x_i| = 2, from the Hilbert series of A alone.

    Quadratic monomial relations make A Koszul (Froeberg, Math. Scand. 37,
    1975), so U(L) has Poincare series 1/H_A(-t) in word length (Berglund,
    Trans. AMS 366, 2014).  H_A is counted on the untruncated algebra, as the
    monomials that no relation pair divides.  The graded PBW theorem then
    peels l_n off in turn: a factor (1 + t^n)^(l_n) for odd n and
    1/(1 - t^n)^(l_n) for even n.
    """
    hilbert = []
    for w in range(top + 1):
        count = 0
        for factors in itertools.combinations_with_replacement(range(k), w):
            exponents = Counter(factors)
            if not any(
                exponents[i] >= 2 if i == j else exponents[i] and exponents[j]
                for i, j in relations
            ):
                count += 1
        hilbert.append(count)
    # series = 1 / H_A(-t), to t^top
    series = [1] + [0] * top
    for n in range(1, top + 1):
        series[n] = -sum((-1) ** i * hilbert[i] * series[n - i] for i in range(1, n + 1))
    dims = []
    for n in range(1, top + 1):
        dims.append(series[n])
        assert series[n] >= 0, (n, series)
        for _ in range(series[n]):
            if n % 2:  # divide by 1 + t^n
                for m in range(n, top + 1):
                    series[m] -= series[m - n]
            else:  # multiply by 1 - t^n
                for m in range(top, n - 1, -1):
                    series[m] -= series[m - n]
    return dims


def test_koszul_dual_dimensions_by_hand():
    # no relations: L = L_1, abelian; every relation: the Witt numbers
    assert _koszul_dual_dimensions(3, [], 5) == [3, 0, 0, 0, 0]
    everything = [(i, j) for i in range(3) for j in range(i, 3)]
    assert _koszul_dual_dimensions(3, everything, 7) == _graded_witt_numbers(3, 7)
    # Q[x, y]/(x^2): the model of S^2 x CP^infinity is x, y and b with db = x^2
    assert _koszul_dual_dimensions(2, [(0, 0)], 5) == [2, 1, 0, 0, 0]


@st.composite
def quadratic_monomial_presentations(draw):
    """2-4 degree-2 generators, any set of quadratic monomials as relations, N = 7 or 8."""
    k = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    relations = sorted(draw(st.sets(st.sampled_from(pairs))))
    return k, relations, draw(st.integers(7, 8))


@settings(max_examples=80, deadline=None)
@given(quadratic_monomial_presentations())
def test_quadratic_monomial_relations_give_the_koszul_dual_generators(problem):
    k, relations, n = problem
    gens = [(f"x{i}", 2) for i in range(k)]
    rels = [f"x{i}^2" if i == j else f"x{i}*x{j}" for i, j in relations]
    model = build_minimal_model(PresentedAlgebra.from_strings(gens, rels, n + 1), n)
    counts = Counter(g.degree for g in model.generators)
    # dim V^(m+1) = l_m in every degree m + 1 < N; degree N holds no generators
    assert [counts[m + 1] for m in range(1, n - 1)] == _koszul_dual_dimensions(k, relations, n - 2)
    assert counts[n] == 0
    # coformal: every d(g) is purely quadratic
    for g, dg in model.dgca.d_codes():
        assert all(sum(e for _, e in code) == 2 for code, _ in dg), g.name


@pytest.mark.parametrize("k", [1, 2, 3])
def test_complex_projective_space_model(k):
    # CP^k: A = Q[a]/(a^(k+1)), |a| = 2; its model is V = {a, b}, |b| = 2k+1,
    # db = a^(k+1), with nothing else through degree 2k + 3
    n = 2 * k + 3
    algebra = PresentedAlgebra.from_strings([("a", 2)], [f"a^{k + 1}"], n + 1)
    model = build_minimal_model(algebra, n)
    assert sorted(g.degree for g in model.generators) == [2, 2 * k + 1]
    a, b = sorted(model.generators, key=lambda g: g.degree)
    power = Element.from_generator(a)
    for _ in range(k):
        power = power * Element.from_generator(a)
    ((monomial, c),) = model.d_of(b).terms()
    assert c != 0 and Element.from_monomial(monomial) == power
    assert model.d_of(a).is_zero


# ---------------------------------------------------------------------------
# the kill step against the kill step as first written (tests/conftest.py)


def _tables(model):
    """The generator table and the kept spaces of a built model, as text."""
    D = model.dgca
    gens = [(g.name, g.degree, g.stage, g.index, dg, str(model.rho[g])) for g, dg in D.d_codes()]
    spaces = [
        (k, [list(row.items()) for row in rows], complement, size)
        for k, (rows, complement, size) in sorted(kept_spaces(D).items())
    ]
    return repr(gens), repr(spaces)


def _assert_rho_and_indices_follow_the_stages(model):
    """rho fixes each lift and kills every other generator, the lifts of each
    degree m are A's ``indecomposables(m)``, and the kill generators are
    numbered on from A's generators, degree by degree."""
    algebra, gens = model.algebra, model.generators
    assert set(model.rho) == set(gens)
    for g in gens:
        assert model.rho[g] == (Element.zero() if g.stage else Element.from_generator(g)), g.name
    lifts = [g for m in range(2, model.truncation + 1) for g in algebra.indecomposables(m)]
    assert [g for g in gens if not g.stage] == lifts
    # a layer is numbered in the order it is made, which need not be its
    # position order (stage first), so the indices run on within each degree
    start = len(algebra.generators)
    kills = sorted((g.degree, g.index) for g in gens if g.stage)
    assert [index for _, index in kills] == list(range(start, start + len(kills)))


def test_rho_and_indices_of_fixture_and_chosen_models_follow_the_stages():
    problems = [_fixture_algebra(fixture_id) for fixture_id in fixture_ids()]
    # c = a*b is never lifted, yet the kill generators are numbered after it
    gens, relations = [("a", 2), ("b", 2), ("c", 4)], ["c - a*b", "a^2"]
    problems.append((PresentedAlgebra.from_strings(gens, relations, 8), 7))
    # its degree-6 layer is made with stages 3, 4, 3, 4, 2: not in position order
    gens, relations = [("a", 2), ("b", 2), ("c", 3)], ["a*b", "a*c", "b^2"]
    problems.append((PresentedAlgebra.from_strings(gens, relations, 8), 7))
    for algebra, n in problems:
        _assert_rho_and_indices_follow_the_stages(build_minimal_model(algebra, n))


@settings(max_examples=100, deadline=None)
@given(small_presentations())
def test_rho_and_indices_of_built_models_follow_the_stages(data):
    _assert_rho_and_indices_follow_the_stages(build_minimal_model(*data))


def _square_free_text(i, j):
    return f"x{i}^2" if i == j else f"x{i}*x{j}"


def _fixture_algebra(fixture_id):
    """A fixture's presentation and model truncation."""
    job = load_job(get_fixture(fixture_id).text)
    return job.algebra, job.spec.truncation


@st.composite
def kill_step_problems(draw):
    """(algebra, N, family) over the families of inputs the kill step meets."""
    family = draw(st.sampled_from(["wedge", "monomial", "dense", "cp", "s2xs2"]))
    if family == "dense":
        algebra = draw(dense_quadratic_presentations())
        return algebra, algebra.truncation - 1, family
    if family == "wedge":
        r = draw(st.integers(2, 4))
        n = draw(st.integers(4, {2: 8, 3: 7, 4: 6}[r]))
        gens = [(f"x{i}", 2) for i in range(r)]
        rels = [_square_free_text(i, j) for i in range(r) for j in range(i, r)]
    elif family == "monomial":
        k, relations, _ = draw(quadratic_monomial_presentations())
        n = draw(st.integers(4, 6))
        gens = [(f"x{i}", 2) for i in range(k)]
        rels = [_square_free_text(i, j) for i, j in relations]
    elif family == "cp":
        k = draw(st.integers(1, 4))
        n, gens, rels = 2 * k + 3, [("x", 2)], [f"x^{k + 1}"]
    else:
        n, gens, rels = draw(st.integers(4, 7)), [("x", 2), ("y", 2)], ["x^2", "y^2"]
    return PresentedAlgebra.from_strings(gens, rels, n + 1), n, family


def test_kill_step_matches_the_reference_kill_step(monkeypatch):
    kill_step, rho_constraints = minimal_model._kill_step, minimal_model._rho_constraints
    ran = set()

    def compare(algebra, n, family):
        constrained = []

        def spy_constraints(*args):
            rows = rho_constraints(*args)
            constrained.append(bool(rows))
            return rows

        def spy_kill_step(model, h_space, a_space):
            # the split the one path rests on: each class row of H^(m+1), and
            # d of each degree-m key, is all pure or has no pure term
            stage_of = [g.stage for g in model.gens]

            def kinds(codes):
                return {not any(stage_of[p] for p, _ in code) for code in codes}

            keys = h_space.keys
            for row in h_space._class_rows:
                assert len(kinds(keys[j] for j in row)) == 1, (family, h_space.degree)
            for key in model.keys(h_space.degree - 1):
                assert len(kinds(code for code, _ in model.d_basis(key))) <= 1, (family, key)
            before = len(model.gens)
            kill_step(model, h_space, a_space)
            new = model.gens[before:]
            kind = "constrained" if constrained[-1] else "unconstrained"
            ran.add(kind)
            if kind == "unconstrained" and family == "wedge" and h_space.degree == 4:
                if any(g.stage == 1 for g in new):
                    ran.add("unconstrained, with a stage-1 layer")

        with monkeypatch.context() as mp:
            mp.setattr(minimal_model, "_rho_constraints", spy_constraints)
            mp.setattr(minimal_model, "_kill_step", spy_kill_step)
            model = build_minimal_model(algebra, n)
        with monkeypatch.context() as mp:
            mp.setattr(minimal_model, "_kill_step", reference_kill_step)
            reference = build_minimal_model(algebra, n)
        assert _tables(model) == _tables(reference), family

    for fixture_id in fixture_ids():
        compare(*_fixture_algebra(fixture_id), "fixture")

    @settings(max_examples=60, deadline=None)
    @given(kill_step_problems())
    def check(problem):
        compare(*problem)

    check()
    assert ran == {"constrained", "unconstrained", "unconstrained, with a stage-1 layer"}


def _reference_constraints(h_space, a_space, pure):
    """rho* of each whole class representative, as the kill step first formed it,
    over the reversed positions of ``pure``; rho* must vanish on every other class."""
    rows = {}
    rho = stage_rho(h_space.cochains.gens)
    if a_space.dimension:
        images = [
            reference_rho_of(rho, a_space.cochains, cls.representative) for cls in classes(h_space)
        ]
        assert all(image.is_zero for i, image in enumerate(images) if i not in pure)
        for t, i in enumerate(reversed(pure)):
            for j, c in enumerate(a_space.class_of(images[i]).coordinates):
                if c:
                    rows.setdefault(j, {})[t] = c
    return list(rows.values())


def _constraints_checked(monkeypatch, algebra, n):
    """Build, checking the constraint rows of every kill step; returns how many were nonempty."""
    rho_constraints = minimal_model._rho_constraints
    nonempty = []

    def spy(h_space, pure, a_space):
        rows = rho_constraints(h_space, pure, a_space)
        expected = _reference_constraints(h_space, a_space, pure)
        assert rows == expected and repr(rows) == repr(expected), h_space.degree
        nonempty.append(bool(rows))
        return rows

    with monkeypatch.context() as mp:
        mp.setattr(minimal_model, "_rho_constraints", spy)
        build_minimal_model(algebra, n)
    return sum(nonempty)


def test_rho_constraints_on_pure_parts_equal_those_of_whole_representatives(monkeypatch):
    nonempty = 0
    for fixture_id in ("cp2-attach", "fatwedge-e6", "even-4k"):
        nonempty += _constraints_checked(monkeypatch, *_fixture_algebra(fixture_id))

    @settings(max_examples=20, deadline=None)
    @given(dense_quadratic_presentations())
    def check(algebra):
        nonlocal nonempty
        nonempty += _constraints_checked(monkeypatch, algebra, algebra.truncation - 1)

    check()
    assert nonempty


def test_rho_constraints_refuse_a_pure_code_with_no_column_in_a():
    """A stage-0 generator that is not one of A's has no position in A, so
    its pure codes have no column there: an IntegrityError, not a KeyError."""
    algebra = PresentedAlgebra.from_strings([("x", 2)], [], 5)
    stray = FreeDGCA([Generator("y", 2, index=0)], {}, 4)
    h_space = stray.cohomology(4)
    with pytest.raises(IntegrityError, match="has no column in A"):
        minimal_model._rho_constraints(h_space, list(range(h_space.dimension)),
                                       algebra.graded_component(4))


# ---------------------------------------------------------------------------
# the verdict path reads the code tables: verify_standard and rename


def reference_verify_standard(model):
    """`verify_standard` on decoded differentials: the pure part by `pure_part`."""
    problems = []
    for g in model.generators:
        if g.stage >= 1 and not model.rho[g].is_zero:
            problems.append(f"rho({g.name}) = {model.rho[g]} != 0 on stage {g.stage}")
        if g.stage >= 2:
            pure = pure_part(model.d_of(g))
            if not pure.is_zero:
                problems.append(f"d({g.name}) has the Lambda(V_0)-pure component {pure}")
    return problems


def _substitutions(model, limit):
    """Up to ``limit`` models substitute(model, gen, w), w built from lower stages.

    For each positive-stage gen, a pure w with rho(w) != 0 gives rho(gen) that
    value, and, when gen has stage >= 2, a w in Lambda(V_0).Lambda^+(V_1) with
    d(w) != 0 gives d(gen) a pure part.
    """
    made = 0
    for gen in model.generators:
        if gen.stage == 0:
            continue
        lower = [g for g in model.generators if g.stage < gen.stage]
        kinds = {0} if gen.stage == 1 else {0, 1}
        for mon in monomial_basis(lower, gen.degree):
            if not kinds:
                break
            kind = min(mon.max_stage(), 1)
            if kind not in kinds:
                continue
            w = Element.from_monomial(mon)
            if kind == 0:
                moved = reference_rho_of(model.rho, model.algebra, w)
            else:
                moved = d_of(model.dgca, w)
            if not moved.is_zero:
                kinds.discard(kind)
                yield substitute(model, gen, w)
                made += 1
                if made == limit:
                    return


def test_verify_standard_matches_the_decoded_reference(
    cp1, cp2_attach, wedge3_s2, wedge3_e6, fatwedge_e6
):
    flagged = set()
    for fixture in (cp1, cp2_attach, wedge3_s2, wedge3_e6, fatwedge_e6):
        model = fixture.model
        assert verify_standard(model) == reference_verify_standard(model) == []
        for perturbed in _substitutions(model, limit=12):
            problems = verify_standard(perturbed)
            assert problems == reference_verify_standard(perturbed)
            flagged.update(problem.split("(")[0] for problem in problems)
    assert flagged == {"rho", "d"}


@settings(max_examples=60, deadline=None)
@given(small_presentations(), st.data())
def test_verify_standard_matches_the_decoded_reference_random(data, sampler):
    algebra, truncation = data
    model = build_minimal_model(algebra, truncation)
    gen = sampler.draw(st.sampled_from(model.generators))
    others = [g for g in model.generators if g != gen]
    delta = sampler.draw(elements_of(FreeDGCA(others, {}, truncation), gen.degree))
    perturbed = substitute(model, gen, delta)
    assert verify_standard(perturbed) == reference_verify_standard(perturbed)


# ---------------------------------------------------------------------------
# rho's rules, checked when a model is made, and verify on the code tables


def _hand_made(a_gens, relations, gens, d, rho, n):
    """A hand-made model over A = <a_gens | relations>, truncated at n.

    ``gens`` lists (name, degree, stage) in position order; ``d`` and ``rho``
    map names to the texts of d(g), over the model, and of rho(g), over A;
    a generator that ``rho`` omits maps to zero.
    """
    algebra = PresentedAlgebra.from_strings(a_gens, relations, n + 1)
    in_a = {g.name: g for g in algebra.generators}
    named = {name: Generator(name, deg, stage, i) for i, (name, deg, stage) in enumerate(gens)}
    dgca = FreeDGCA(list(named.values()),
                    {named[x]: parse_element(text, named) for x, text in d.items()}, n)
    images = {g: parse_element(rho.get(name, "0"), in_a) for name, g in named.items()}
    return BigradedModel(dgca, images, algebra)


def test_a_hand_made_rho_is_checked_when_the_model_is_made():
    """On the 2-sphere (a^2 = 0, N = 4), each fault is an `InputError` that
    names the generator; before, `verify`, `verify_standard`, `rename` or a
    verdict met it as a `KeyError`, or as a nonzero rho(d(g))."""
    model = build_minimal_model(PresentedAlgebra.from_strings([("a", 2)], ["a^2"], 5), 4)
    a, b = model.generators
    assert b.name == "v3_s1_0"
    other = Generator("x", 2, 0, 1)
    refused = {
        "a missing stage-0 key": ({b: Element.zero()}, "^rho has no image for the generator 'a'$"),
        "a missing stage-1 key": (
            {a: model.rho[a]}, "^rho has no image for the generator 'v3_s1_0'$"),
        "an extra key": (
            {**model.rho, other: Element.zero()},
            "^rho has an image for 'x', which is not a generator$"),
        "an image outside A": (
            {a: Element.from_generator(other), b: Element.zero()},
            "^rho\\(a\\) uses 'x', which is not in A$"),
        "an image of the wrong degree": (
            {a: model.rho[a], b: Element({Monomial.unit(): 1})},
            "^rho\\(v3_s1_0\\) has degree 0, not 3$"),
        "an image that is not an Element": (
            {a: model.rho[a], b: 0}, "^rho\\(v3_s1_0\\) = 0 is not an Element$"),
    }
    for case, (rho, message) in refused.items():
        with pytest.raises(InputError, match=message):
            BigradedModel(model.dgca, rho, model.algebra)
            pytest.fail(case)
    # the same rho by hand is taken, and the built mark skips the checks
    assert BigradedModel(model.dgca, dict(model.rho), model.algebra).verify() == []
    BigradedModel(model.dgca, {}, model.algebra, built=True)


# Hand-made faults and what `verify() + verify_standard(model)` gives for them.
# The lists are those of the code before verify read the code tables, less
# verify's copy of "rho(g) != 0 on a stage-k generator", which only
# verify_standard now reports.
_SPHERE = ([("a", 2)], ["a^2"])
_FAULTS = {
    "d^2": (
        (*_SPHERE, [("a", 2, 0), ("b", 3, 1), ("c", 4, 2)], {"b": "a^2", "c": "a*b"},
         {"a": "a"}, 4),
        ["d^2 != 0 at generator c: a^3"],
    ),
    "stage": (
        (*_SPHERE, [("a", 2, 0), ("x", 3, 0), ("b", 3, 1), ("e", 3, 1), ("c", 4, 1)],
         {"x": "a^2", "b": "a^2", "e": "a^2", "c": "a*b - a*e"}, {"a": "a"}, 4),
        ["d(x) involves stage 0 >= its own stage 0", "d(c) involves stage 1 >= its own stage 1"],
    ),
    "the first offending term in code order": (
        (*_SPHERE, [("a", 2, 0), ("b", 3, 1), ("e", 3, 1), ("f", 4, 2), ("c", 5, 1)],
         {"b": "a^2", "e": "a^2", "f": "a*b - a*e", "c": "a*f + b*e"}, {"a": "a"}, 5),
        ["d(c) involves stage 2 >= its own stage 1"],
    ),
    "rho(d(g)) in a free A": (
        ([("a", 2)], [], [("a", 2, 0), ("b", 3, 1)], {"b": "a^2"}, {"a": "a"}, 4),
        ["rho(d(b)) != 0"],
    ),
    "rho(d(g)) of a mixed product": (
        ([("a", 2), ("x", 2)], ["a^2", "x^2"], [("a", 2, 0), ("x", 2, 0), ("b", 3, 1)],
         {"b": "a*x"}, {"a": "a", "x": "x"}, 4),
        ["rho(d(b)) != 0"],
    ),
    "rho(d(g)) of odd images": (
        ([("y", 3), ("z", 3)], [], [("y", 3, 0), ("z", 3, 0), ("w", 5, 1)], {"w": "y*z"},
         {"y": "y + z", "z": "y - z"}, 6),
        ["rho(d(w)) != 0"],
    ),
    "odd images whose product is a relation": (
        ([("y", 3), ("z", 3)], ["y*z"], [("y", 3, 0), ("z", 3, 0), ("w", 5, 1)], {"w": "y*z"},
         {"y": "y + z", "z": "y - z"}, 6),
        [],
    ),
    "rho on a positive stage": (
        ([("a", 2), ("x", 3)], ["a^2"], [("a", 2, 0), ("x", 3, 0), ("b", 3, 1)], {"b": "a^2"},
         {"a": "a", "x": "x", "b": "x"}, 4),
        ["rho(b) = x != 0 on stage 1"],
    ),
    "every kind at once": (
        ([("a", 2), ("x", 3)], [],
         [("a", 2, 0), ("x", 3, 0), ("b", 3, 1), ("e", 3, 1), ("c", 4, 1), ("f", 4, 2)],
         {"b": "a^2", "e": "a^2", "c": "a*b - a*e", "f": "a*b"},
         {"a": "a", "x": "x", "b": "-2*x", "e": "x"}, 4),
        ["d^2 != 0 at generator f: a^3", "rho(d(b)) != 0", "rho(d(e)) != 0",
         "d(c) involves stage 1 >= its own stage 1", "rho(d(c)) != 0", "rho(d(f)) != 0",
         "rho(b) = -2*x != 0 on stage 1", "rho(e) = x != 0 on stage 1"],
    ),
}


@pytest.mark.parametrize("case", sorted(_FAULTS))
def test_verify_on_codes_flags_the_hand_made_faults(case):
    args, expected = _FAULTS[case]
    model = _hand_made(*args)
    assert model.verify() + verify_standard(model) == expected


def test_verify_multiplies_no_element(monkeypatch, wedge3_s2):
    """verify reads the code tables: with `Element` products and sums and
    `FreeDGCA.element_of` refused, it still passes every fixture model, a
    dense model, one whose rho is not monomial, and the r = 3, N = 8 wedge."""
    models = [build_fixture(fixture_id).model for fixture_id in fixture_ids()]
    dense = PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("x3", 2)],
        ["2*x1^2 - 3/2*x1*x2 + x2^2 - x3^2", "x1*x3 + 4*x2*x3 - 2/3*x2^2 + 3*x1^2"], 8)
    models.append(build_minimal_model(dense, 7))
    x1, x2 = models[-1].generators[:2]
    models.append(substitute(models[-1], x1, Element.from_generator(x2)))
    wedge = PresentedAlgebra.from_strings(
        [(f"x{i}", 2) for i in range(1, 4)],
        [_square_free_text(i, j) for i in range(1, 4) for j in range(i, 4)], 9)
    models.append(build_minimal_model(wedge, 8))

    def refuse(*args):
        raise AssertionError("verify built an Element")

    for name in ("__mul__", "__add__"):
        monkeypatch.setattr(Element, name, refuse)
    monkeypatch.setattr(FreeDGCA, "element_of", refuse)
    for model in models:
        assert model.verify() == []


def _rebuilt(model, gmap):
    """The reference rename: every d(g) decoded, renamed by gmap and encoded afresh."""
    def renamed(x):
        return Element(
            {Monomial(tuple((gmap[g], e) for g, e in mon.powers)): c for mon, c in x.terms()}
        )

    return FreeDGCA(
        [gmap[g] for g in model.generators],
        {gmap[g]: renamed(model.d_of(g)) for g in model.generators},
        model.truncation,
    )


def _outputs(D):
    """What a complex answers, in every degree it answers in."""
    out = {
        "gens": D.gens,
        "d": [(g, {code: c for code, c in dg}) for g, dg in D.d_codes()],
    }
    for m in range(D.truncation + 2):
        out["keys", m] = D.keys(m)
    for m in range(D.truncation + 1):
        space = D.cohomology(m)
        out["cohomology", m] = (
            space._class_rows,
            space.coboundaries.fraction_rows(),
            space.complement,
            [(c.representative, c.coordinates) for c in classes(space)],
        )
    return out


def _state(D):
    """The tables and caches of a complex, by value and, for cached spaces, by identity."""
    return (D.gens, list(D._d_codes), list(D._degree), list(D._odd),
            dict(D._position), list(D._codes), kept_spaces(D), dict(D._spaces))


@settings(max_examples=30, deadline=None)
@given(built_wedge_and_dense_models(), st.data())
def test_rename_matches_a_rebuilt_model(model, data):
    # classes read before the rename: the renamed complex reads its own copy
    # of the class rows, not the source's spaces
    for m in data.draw(st.lists(st.integers(0, model.truncation), max_size=3)):
        classes(model.dgca.cohomology(m))
    names = [g.name for g in model.generators]
    pool = names + [f"r{i}" for i in range(len(names))]
    new_names = data.draw(st.permutations(pool))[: len(names)]
    renamed = model.rename({old: new for old, new in zip(names, new_names) if old != new})
    gmap = dict(zip(model.generators, renamed.generators))
    assert [h.name for h in renamed.generators] == new_names
    assert all(
        (h.degree, h.stage, h.index) == (g.degree, g.stage, g.index) for g, h in gmap.items()
    )
    assert renamed.rho == {gmap[g]: image for g, image in model.rho.items()}
    # the spaces the build handed down carry over, and a fresh complex finds them
    spaces = kept_spaces(renamed.dgca)
    assert spaces == kept_spaces(model.dgca) and spaces
    reference = _rebuilt(model, gmap)
    for k in spaces:
        reference.cohomology(k)
    assert {k: kept_spaces(reference)[k] for k in spaces} == spaces
    assert _outputs(renamed.dgca) == _outputs(reference)
    assert kept_spaces(renamed.dgca) == kept_spaces(reference)


@settings(max_examples=20, deadline=None)
@given(built_wedge_and_dense_models())
def test_extending_a_renamed_model_leaves_its_source_unchanged(model):
    source = model.dgca
    before = _state(source)
    renamed = model.rename({g.name: f"r_{g.name}" for g in model.generators}).dgca
    top = renamed.gens[-1]
    z = Generator("z", top.degree, top.stage + 1, top.index + 1)
    renamed.extend([z], {})
    for m in range(renamed.truncation + 1):
        classes(renamed.cohomology(m))
    assert renamed.gens[-1] == z and renamed.keys(top.degree)[-1] == ((len(source.gens), 1),)
    # z is a closed generator of degree top.degree: the space of that degree
    # gains a key in the renamed complex only
    assert kept_spaces(renamed)[top.degree][2] == kept_spaces(source)[top.degree][2] + 1
    assert _state(source) == before
    assert _outputs(source) == _outputs(_rebuilt(model, {g: g for g in model.generators}))
    # and the other way round: extending the source leaves the renamed spaces
    after = kept_spaces(renamed)
    source.extend([Generator("z", top.degree, top.stage + 1, top.index + 1)], {})
    assert kept_spaces(renamed) == after


# ---------------------------------------------------------------------------
# the code tables a complex keeps through its extensions


def _fresh_code_table(D):
    """The code tables of D's degrees so far, enumerated afresh over its generators."""
    table = []
    monomial_codes(D._degree, D._odd, len(D._codes) - 1, table)
    return table


def _check_code_tables_after_build_rename_and_extend(model):
    for D in (model.dgca, model.algebra):
        assert D._codes == _fresh_code_table(D)
    source = model.dgca
    before = copy.deepcopy(source._codes)
    renamed = model.rename({g.name: f"r_{g.name}" for g in model.generators}).dgca
    # every degree tabled, and the keys handed out held, before the extension
    held = {m: renamed.keys(m) for m in range(renamed.truncation + 2)}
    copies = {m: list(keys) for m, keys in held.items()}
    top = renamed.gens[-1]
    z = Generator("z", top.degree, top.stage + 1, top.index + 1)
    w = Generator("w", top.degree + 1, top.stage + 1, top.index + 2)
    renamed.extend([z, w], {})
    assert renamed._codes == _fresh_code_table(renamed)
    assert len(renamed._codes) == min(top.degree + 2, len(before))
    for m in range(renamed.truncation + 2):
        renamed.keys(m)
    assert renamed._codes == _fresh_code_table(renamed)
    assert held == copies
    assert source._codes == before


def test_code_tables_match_a_fresh_enumeration_fixtures():
    for fixture_id in fixture_ids():
        algebra, n = _fixture_algebra(fixture_id)
        _check_code_tables_after_build_rename_and_extend(build_minimal_model(algebra, n))


@settings(max_examples=30, deadline=None)
@given(built_wedge_and_dense_models())
def test_code_tables_match_a_fresh_enumeration_wedge_and_dense(model):
    _check_code_tables_after_build_rename_and_extend(model)


def test_a_build_enumerates_each_degree_once_per_complex(monkeypatch):
    enumerate_codes = dgca.monomial_codes

    def check(algebra, n):
        tables = {}  # id(table) -> (table, the degrees enumerated into it)

        def counting(degrees, odd, degree, table):
            before = len(table)
            out = enumerate_codes(degrees, odd, degree, table)
            tables.setdefault(id(table), (table, []))[1].extend(range(before, len(table)))
            return out

        with monkeypatch.context() as mp:
            mp.setattr(dgca, "monomial_codes", counting)
            build_minimal_model(algebra, n)
        assert tables
        for _, degrees in tables.values():
            assert len(degrees) == len(set(degrees)), degrees

    for fixture_id in fixture_ids():
        check(*_fixture_algebra(fixture_id))

    @settings(max_examples=30, deadline=None)
    @given(kill_step_problems())
    def random(problem):
        check(*problem[:2])

    random()


def test_rename_refuses_to_reorder_generators():
    # x and y tie on (degree, stage, index), so their names order them
    x, y, b = Generator("x", 2), Generator("y", 2), Generator("b", 3, 1, 1)
    algebra = PresentedAlgebra([x, y], [Element.from_generator(x) * Element.from_generator(y)], 5)
    model = BigradedModel(
        FreeDGCA([x, y, b], {b: Element.from_generator(x) * Element.from_generator(y)}, 4),
        {x: Element.from_generator(x), y: Element.from_generator(y), b: Element.zero()},
        algebra,
    )
    refusals = [
        ({"x": "z"}, "^the new names 'z' and 'y' would reorder the generators 'x' and 'y'$"),
        ({"y": "w"}, "^the new names 'x' and 'w' would reorder the generators 'x' and 'y'$"),
        ({"x": "y", "y": "x"},
         "^the new names 'y' and 'x' would reorder the generators 'x' and 'y'$"),
    ]
    for mapping, message in refusals:
        with pytest.raises(InputError, match=message):
            model.rename(mapping)
    renamed = model.rename({"x": "a", "b": "c"})
    assert [g.name for g in renamed.generators] == ["a", "y", "c"]
    assert str(renamed.d_of(generator(renamed, "c"))) == "a*y"


def test_the_column_index_leaves_the_generator_tables_unchanged(monkeypatch):
    """The r = 3, N = 8 wedge and a dense presentation, built with the
    elimination's column index from every first row (0), from partway through
    a build (64), at its default, and never (above every rank)."""
    wedge = (
        [(f"x{i}", 2) for i in range(1, 4)],
        [_square_free_text(i, j) for i in range(1, 4) for j in range(i, 4)],
        8,
    )
    squares = [_square_free_text(i, j) for i in range(1, 5) for j in range(i, 5)]
    dense = (
        [(f"x{i}", 2) for i in range(1, 5)],
        [" + ".join(f"{(j + 1) * (m + 3) * (m + j + 5) % 9 - 4}*{s}"
                    for m, s in enumerate(squares)).replace("+ -", "- ") for j in range(8)],
        7,
    )
    indexed = []  # the INDEX_RANK of each index a build made
    index = linalg.RowSpace._index
    monkeypatch.setattr(linalg.RowSpace, "_index",
                        lambda self: indexed.append(linalg.INDEX_RANK) or index(self))
    for gens, relations, n in (wedge, dense):
        tables = set()
        for rank in (0, 64, linalg.INDEX_RANK, 10**9):
            monkeypatch.setattr(linalg, "INDEX_RANK", rank)
            algebra = PresentedAlgebra.from_strings(gens, relations, n + 1)
            tables.add(_tables(build_minimal_model(algebra, n)))
        assert len(tables) == 1
        assert {0, 64} <= set(indexed) and 10**9 not in indexed
        indexed.clear()


def test_class_rows_and_kill_layers_hold_an_int_wherever_an_entry_is_integral(monkeypatch):
    """The r = 3, N = 8 wedge, a dense presentation whose kill steps give
    fractional d(g), and each fixture's model: no entry of a kept space's
    class rows, read by each kill step and after the build, and no
    kill-layer coefficient of d(g) is a Fraction with denominator 1, a float
    or a bool.  Integral values reach the model as ints from the elimination
    on, and both kinds of entry occur."""
    read = []  # the class rows of each space a kill step reads
    kill_step = minimal_model._kill_step

    def recording(model, h_space, a_space):
        read.extend(h_space._class_rows)
        return kill_step(model, h_space, a_space)

    monkeypatch.setattr(minimal_model, "_kill_step", recording)
    wedge = PresentedAlgebra.from_strings(
        [(f"x{i}", 2) for i in range(1, 4)],
        [_square_free_text(i, j) for i in range(1, 4) for j in range(i, 4)],
        9,
    )
    dense = PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("x3", 2)],
        [
            "2*x1^2 - 3*x1*x2 + x2^2 - x3^2",
            "x1*x3 + 4*x2*x3 - 2*x2^2 + 3*x1^2",
            "x1*x2 - x2*x3 + 2*x3^2",
            "x1^2 + x1*x3 - 3*x2^2",
        ],
        8,
    )
    problems = [(wedge, 8), (dense, 7)] + [_fixture_algebra(f) for f in fixture_ids()]
    seen = Counter()
    for algebra, n in problems:
        D = build_minimal_model(algebra, n).dgca
        assert D._spaces
        rows = [row for space in D._spaces.values() for row in space._class_rows] + read
        read.clear()
        kill_layers = [dg for g, dg in D.d_codes() if g.stage]
        assert all(not dg for g, dg in D.d_codes() if not g.stage)
        values = [v for row in rows for v in row.values()]
        values += [c for dg in kill_layers for _, c in dg]
        for v in values:
            assert type(v) is int or (type(v) is F and v.denominator > 1), repr(v)
            seen[type(v)] += 1
    assert seen[int] and seen[F], seen


def test_every_d_of_a_generator_is_kept_as_code_coefficient_pairs():
    """d(g) is kept in the form `_d_code` gives: in the model of the r = 3,
    N = 8 wedge, of a dense presentation and of each fixture, in their
    renamed copies and in a hand-made `FreeDGCA`, every `d_codes()` entry is
    a tuple of (code, c) pairs, with c an int (not a bool) or a Fraction with
    denominator > 1, and it lists d of the one-factor code as `_d_code` does."""
    wedge = PresentedAlgebra.from_strings(
        [(f"x{i}", 2) for i in range(1, 4)],
        [_square_free_text(i, j) for i in range(1, 4) for j in range(i, 4)],
        9,
    )
    dense = PresentedAlgebra.from_strings(
        [("x1", 2), ("x2", 2), ("x3", 2)],
        ["2*x1^2 - 3*x1*x2 + x2^2 - x3^2", "x1*x3 + 4*x2*x3 - 2*x2^2 + 3*x1^2"],
        8,
    )
    problems = [(wedge, 8), (dense, 7)] + [_fixture_algebra(f) for f in fixture_ids()]
    complexes = []
    for algebra, n in problems:
        D = build_minimal_model(algebra, n).dgca
        complexes += [D, D.renamed([f"g{p:05d}" for p in range(len(D.gens))])]
    a, b, c = Generator("a", 2, index=0), Generator("b", 3, index=1), Generator("c", 3, index=2)
    x, y = Generator("x", 5, stage=1, index=3), Generator("y", 7, stage=1, index=4)
    dx = Element({Monomial.of(a, 3): F(1, 2), Monomial(((b, 1), (c, 1))): F(-3)})
    dy = Element({Monomial.of(a, 4): F(2), Monomial(((a, 1), (b, 1), (c, 1))): F(1)})
    complexes.append(FreeDGCA([a, b, c, x, y], {x: dx, y: dy}, 8))
    seen = Counter()
    for D in complexes:
        for p, (g, dg) in enumerate(D.d_codes()):
            assert type(dg) is tuple, g.name
            for term in dg:
                assert type(term) is tuple and len(term) == 2, (g.name, term)
                code, coefficient = term
                assert type(code) is tuple, (g.name, term)
                assert type(coefficient) is int or (
                    type(coefficient) is F and coefficient.denominator > 1
                ), (g.name, term)
                seen[type(coefficient)] += 1
            assert list(dg) == D._d_code(((p, 1),)), g.name
    assert seen[int] and seen[F], seen
