from fractions import Fraction

import pytest
from hypothesis import strategies as st

from sullivan import formality
from sullivan.attachment import AlphaFunctional, AttachmentElement, AttachmentModel
from sullivan.dgca import FreeDGCA
from sullivan.errors import InputError
from sullivan.fixtures import build_fixture
from sullivan.gca import Element, Generator, monomial_basis
from sullivan.linalg import RowSpace, add_scaled, intersect_spans, solve_in_span, solve_rows
from sullivan.minimal_model import BigradedModel, _rho_of, build_minimal_model, verify_standard
from sullivan.presented import PresentedAlgebra


@pytest.fixture(scope="session")
def cp1():
    return build_fixture("cp1")


@pytest.fixture(scope="session")
def cp2_attach():
    return build_fixture("cp2-attach")


@pytest.fixture(scope="session")
def wedge3_s2():
    return build_fixture("wedge3-s2")


@pytest.fixture(scope="session")
def wedge3_e6():
    return build_fixture("wedge3-e6")


@pytest.fixture(scope="session")
def fatwedge_e6():
    return build_fixture("fatwedge-e6")


# ---------------------------------------------------------------------------
# helpers built on the library's public API


def generator(model, name):
    """The model generator with this name."""
    [found] = [g for g in model.generators if g.name == name]
    return found


def attachment_of(built):
    """A bundled fixture's attachment, built afresh from its model and alpha."""
    return AttachmentModel(built.model, built.alpha)


def kept_spaces(D):
    """What a FreeDGCA keeps of each H^k, copied.

    {k: (class rows, complement, number of degree-k keys)}
    """
    return {
        k: ([dict(row) for row in space._class_rows], list(space.complement), len(space.keys))
        for k, space in D._spaces.items()
    }


def class_product(dgca, c1, c2):
    """The class of the product of two class representatives of a FreeDGCA."""
    product = c1.representative * c2.representative
    return dgca.cohomology(c1.degree + c2.degree).class_of(product)


def twisted_d(att, mon):
    """d_tw of one basis monomial of an attachment's base, through ``d_basis``."""
    return att.element_of(dict(att.d_basis(att.base.dgca.key(mon))))


def d_of(cochains, x):
    """d of an element of ``cochains``: c * ``d_basis(k)`` summed over its
    ``terms_of`` (k, c), decoded by ``element_of``."""
    total = {}
    for k, c in cochains.terms_of(x):
        add_scaled(total, c, dict(cochains.d_basis(k)))
    return cochains.element_of(total)


def classes(space):
    """The basis classes of a `CohomologySpace`, each with unit coordinates."""
    return [space._basis_class(i) for i in range(space.dimension)]


def combine(cochains, terms):
    """The element of ``cochains`` summing c * x, or c * x * y, over the
    (c, x) and (c, x, y) of ``terms``.

    x and y of a product are class representatives of positive degree.  On
    an attachment complex u annihilates both, so their product is that of
    their bodies.  The sum is taken on the complex's (key, coefficient)
    terms, through ``terms_of`` and ``element_of``.
    """
    total = {}
    for c, x, *y in terms:
        if y and isinstance(x, AttachmentElement):
            x = AttachmentElement(x.body * y[0].body)
        elif y:
            x = x * y[0]
        for k, v in cochains.terms_of(x):
            total[k] = total.get(k, 0) + c * v
    return cochains.element_of({k: v for k, v in total.items() if v})


def reference_decomposition(cohomology, cls):
    """`dgca.decomposition` the long way: each product's class through `class_of`.

    `class_of` checks that the product is closed under d and decodes its
    reduced representative; its dense coordinates are made sparse again for
    `linalg.solve_rows`.
    """
    m = cls.degree
    target = cohomology(m)
    products = []
    for p in range(1, m // 2 + 1):
        left, right = classes(cohomology(p)), classes(cohomology(m - p))
        for c1 in left:
            for c2 in right:
                product = target.class_of(
                    combine(target.cochains, [(1, c1.representative, c2.representative)])
                )
                if not product.is_zero:
                    products.append((product.coordinates, c1, c2))
    if not products:
        return [] if cls.is_zero else None
    solutions = solve_rows(
        [{i: c for i, c in enumerate(vec) if c} for vec, _, _ in products],
        [{i: c for i, c in enumerate(cls.coordinates) if c}],
    )
    if solutions is None:
        return None
    return [(c, products[j][1], products[j][2]) for j, c in solutions[0].items()]


def product_route_indecomposables(algebra, m):
    """The names of the generators that lift a basis of Q(A)^m, found the long way.

    Every product of classes of degrees p and m - p, 0 < p <= m / 2, is
    formed by `PresentedAlgebra.product` and read into class coordinates by
    `class_of`; the indecomposables are the classes off the pivots of their
    span, named by the one monomial of their representative.
    """
    comp = algebra.graded_component(m)
    products = RowSpace()
    for p in range(1, m // 2 + 1):
        for x in classes(algebra.graded_component(p)):
            for y in classes(algebra.graded_component(m - p)):
                prod = algebra.product(x.representative, y.representative)
                coords = comp.class_of(prod).coordinates
                products.insert({i: c for i, c in enumerate(coords) if c})
    pivots = set(products.pivots())
    return [
        str(cls.representative.monomials()[0])
        for i, cls in enumerate(classes(comp))
        if i not in pivots
    ]


def hurewicz_vanishes(model, alpha):
    """The verdict's Hurewicz test on a standard model: alpha kills every
    stage-0 generator of degree n - 1."""
    assert not verify_standard(model)
    return formality._hurewicz_zero(model, alpha)


def is_special(model, alpha):
    """The verdict's specialness test on a standard model: (special, violators),
    special when the support of alpha lies in stage 1."""
    assert not verify_standard(model)
    return formality._special(alpha)


def scaled(alpha, c):
    """The attaching functional c * alpha."""
    c = Fraction(c)
    if not c:
        return AlphaFunctional(alpha.n, ())
    return AlphaFunctional(
        alpha.n, tuple((g, c * x) for g, x in alpha.coefficients), alpha.coerced
    )


def pure_part(x):
    """The Lambda(V_0)-pure terms of ``x``: those whose factors all have stage 0."""
    return Element({mon: c for mon, c in x.terms() if mon.max_stage() == 0})


def substitute(model, gen, delta):
    """The basis change gen -> gen + delta of a `BigradedModel`.

    Every other structure map follows: d(gen) gains d(delta), rho(gen) gains
    rho(delta), and every other differential has gen replaced by gen - delta.
    ``delta`` must be homogeneous of the generator's degree and must not
    involve the generator itself.  The build never needs this; tests use it
    to make models that are valid but not standard, or whose rho is not
    monomial.
    """
    if delta.is_zero:
        return model
    if delta.homogeneous_degree() != gen.degree:
        raise InputError("substitution must preserve the degree")
    if any(gen in mon.generators() for mon in delta.monomials()):
        raise InputError("substitution may not be recursive")
    replacement = Element.from_generator(gen) - delta  # old gen in the new basis
    d = {g: _replaced(model.d_of(g), gen, replacement) for g in model.generators}
    d[gen] = model.d_of(gen) + d_of(model.dgca, delta)
    rho = dict(model.rho)
    rho[gen] = model.algebra.reduce(model.rho[gen] + model.rho_of(delta))
    return BigradedModel(FreeDGCA(model.generators, d, model.truncation), rho, model.algebra)


def _replaced(x, gen, replacement):
    """``x`` with every factor ``gen`` replaced by ``replacement``."""
    out = Element.zero()
    for mon, coeff in x.terms():
        value = Element.scalar(coeff)
        for g, e in mon.powers:
            factor = replacement if g == gen else Element.from_generator(g)
            for _ in range(e):
                value = value * factor
        out = out + value
    return out


def stage_rho(gens):
    """rho of a built model by its stages: each lift to itself, the rest to zero."""
    return {g: Element.zero() if g.stage else Element.from_generator(g) for g in gens}


def reference_kill_step(model, h_space, a_space):
    """The kill step as first written, for `minimal_model._kill_step`'s signature.

    It decodes every class, forms rho* of each whole representative, takes
    the kernel of rho* even when it has no constraint, reads the pure classes
    through `class_of`, and reduces every kernel vector modulo the stage-1
    span.  The changes are that it sums the class rows by column and maps
    the sum to codes, and that rho (`stage_rho`) and the first free index are
    read off the complex.
    """
    m = h_space.degree - 1
    rho = stage_rho(model.gens)
    index = max(len(a_space.cochains.generators), 1 + max(g.index for g in model.gens))
    constraint_rows = {}
    if a_space.dimension:
        for i, cls in enumerate(classes(h_space)):
            image = _rho_of(cls.representative, rho, a_space.cochains)
            for j, c in enumerate(a_space.class_of(image).coordinates):
                if c:
                    constraint_rows.setdefault(j, {})[i] = c
    kernel = RowSpace(constraint_rows.values()).kernel(h_space.dimension)
    if not kernel:
        return
    stage0 = [g for g in model.gens if g.stage == 0]
    pure_monomials = monomial_basis(stage0, m + 1)
    pure_vectors = [
        h_space.class_of(Element.from_monomial(mon)).coordinates for mon in pure_monomials
    ]
    pure_rows = [{i: c for i, c in enumerate(vec) if c} for vec in pure_vectors]
    pure_rows = [r for r in pure_rows if r]
    counters = {}
    layer = []

    def new_generator(stage):
        serial = counters.get(stage, 0)
        counters[stage] = serial + 1
        return Generator(f"v{m}_s{stage}_{serial}", m, stage, index + len(layer))

    pure_kernel = intersect_spans(kernel, pure_rows)
    for row in pure_kernel:
        vec = tuple(row.get(i, Fraction(0)) for i in range(h_space.dimension))
        coeffs = solve_in_span(pure_vectors, vec)
        assert coeffs is not None
        target = {model.key(mon): c for mon, c in zip(pure_monomials, coeffs) if c}
        layer.append((new_generator(1), target))
    stage_of = [g.stage for g in model.gens]
    handled = RowSpace(pure_kernel)
    leftovers = RowSpace(handled.reduce(vec) for vec in kernel)
    for row in leftovers.fraction_rows():
        vec = {}
        for i, c in row.items():
            add_scaled(vec, c, h_space._class_rows[i])
        target = {h_space.keys[j]: c for j, c in vec.items()}
        stages = [max(stage_of[p] for p, _ in code) for code in target]
        assert all(stages)
        layer.append((new_generator(1 + max(stages)), target))
    model.extend_codes(layer, kills={*handled.pivots(), *leftovers.pivots()})


class ReferenceSlices(PresentedAlgebra):
    """A presented algebra as it was before its columns were keyed by code.

    Its keys are the `Monomial`s of each degree, and its ideal slice is each
    cofactor monomial times each relation, multiplied out as `Element`s with
    their `Fraction` coefficients; `graded_component` and `reduce` are
    inherited.
    """

    def keys(self, m):
        return monomial_basis(self.generators, m)

    @staticmethod
    def d_basis(key):
        # the differential is zero; the inherited d_basis reads codes
        return ()

    def boundaries(self, m):
        cofactors = {}  # one basis per relation degree
        for rel in self.relations:
            d = rel.homogeneous_degree()
            if d is None or d > m:
                continue
            if d not in cofactors:
                cofactors[d] = self.keys(m - d)
            for cof in cofactors[d]:
                yield (Element.from_monomial(cof) * rel).terms()

    @staticmethod
    def terms_of(x):
        return x.terms()

    @staticmethod
    def element_of(terms):
        return Element(terms)


# ---------------------------------------------------------------------------
# hypothesis strategies

coefficients = st.sampled_from(
    [Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1), Fraction(2), Fraction(3, 2)]
)


@st.composite
def small_presentations(draw):
    """A tiny presentation plus a model truncation it supports."""
    ngens = draw(st.integers(1, 2))
    degrees = [draw(st.sampled_from([2, 3])) for _ in range(ngens)]
    gens = [Generator(f"g{i}", d, 0, i) for i, d in enumerate(degrees)]
    truncation = draw(st.integers(3, 5))
    relations = []
    nrels = draw(st.integers(0, 2))
    lo, hi = 2 * min(degrees), truncation + 1
    for _ in range(nrels if lo <= hi else 0):
        degree = draw(st.integers(lo, hi))
        basis = monomial_basis(gens, degree)
        if not basis:
            continue
        terms = {}
        for mon in basis:
            c = draw(st.sampled_from([0, 0, 1, -1, 2]))
            if c:
                terms[mon] = Fraction(c)
        rel = Element(terms)
        if not rel.is_zero:
            relations.append(rel)
    return PresentedAlgebra(gens, relations, truncation + 1), truncation


_SLICE_COEFFICIENTS = ["1", "2", "3", "1/2", "2/3", "5/4"]


@st.composite
def mixed_parity_presentations(draw):
    """Odd and even generators, listed out of order, with fractional relations.

    At least three generators are odd, so cofactors hold odd * odd terms,
    meet relation terms that share an odd factor, and have odd factors
    between those of two terms of one relation.  A relation may write an
    odd generator squared (which parses to zero), and the relations of one
    presentation have mixed degrees.  Returns an algebra truncated at 10.
    """
    degrees = [3, 3, 5, *draw(st.lists(st.sampled_from([2, 2, 3, 4]), min_size=1, max_size=2))]
    degrees = draw(st.permutations(degrees))
    gens = [(f"g{i}", deg) for i, deg in enumerate(degrees)]
    generators = [Generator(name, deg, 0, i) for i, (name, deg) in enumerate(gens)]
    odd = [name for name, deg in gens if deg % 2]
    relations = []
    for degree in draw(st.lists(st.integers(4, 10), min_size=1, max_size=3)):
        basis = monomial_basis(generators, degree)
        picks = draw(st.lists(st.sampled_from(basis), max_size=4)) if basis else []
        terms = [f"{draw(st.sampled_from(_SLICE_COEFFICIENTS))}*{mon}" for mon in picks]
        square = draw(st.sampled_from(odd))
        rest = degree - 2 * dict(gens)[square]
        cofactors = monomial_basis(generators, rest)
        if rest == 0:
            terms.append(f"{square}^2")
        elif cofactors:
            terms.append(f"{square}*{draw(st.sampled_from(cofactors))}*{square}")
        if terms:
            text = terms[0]
            for term in terms[1:]:
                text += draw(st.sampled_from([" + ", " - "])) + term
            relations.append(draw(st.sampled_from(["", "-"])) + text)
    return PresentedAlgebra.from_strings(gens, relations, 10)


@st.composite
def elements_of(draw, dgca, degree, max_terms=3):
    """A random homogeneous element of one degree of a FreeDGCA."""
    basis = dgca.basis(degree)
    if not basis:
        return Element.zero()
    picks = draw(
        st.lists(st.sampled_from(basis), min_size=0, max_size=max_terms)
    )
    out = Element.zero()
    for mon in picks:
        out = out + Element.from_monomial(mon, draw(coefficients))
    return out


@st.composite
def dense_quadratic_presentations(draw):
    """Degree-2 generators with quadratic relations that use every square."""
    k = draw(st.integers(2, 3))
    gens = [Generator(f"x{i}", 2, 0, i) for i in range(k)]
    squares = monomial_basis(gens, 4)
    relations = [
        Element({mon: draw(coefficients) for mon in squares})
        for _ in range(draw(st.integers(1, k - 1)))
    ]
    return PresentedAlgebra(gens, relations, 7)


_WEDGES = {
    r: ([(f"a{i}", 2) for i in range(1, r + 1)],
        [f"a{i}*a{j}" for i in range(1, r + 1) for j in range(i, r + 1)])
    for r in (2, 3)
}


@st.composite
def built_wedge_and_dense_models(draw):
    """A built model of a wedge of 2-spheres or of a dense quadratic presentation."""
    if draw(st.booleans()):
        r = draw(st.sampled_from(sorted(_WEDGES)))
        truncation = draw(st.integers(4, 6 if r == 2 else 5))
        algebra = PresentedAlgebra.from_strings(*_WEDGES[r], truncation + 1)
    else:
        algebra = draw(dense_quadratic_presentations())
        truncation = algebra.truncation - 1
    return build_minimal_model(algebra, truncation)
