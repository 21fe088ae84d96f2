"""Bigraded minimal Sullivan models of presented algebras with zero differential.

The construction runs degree by degree.  In degree m it first adjoins, as
stage-0 generators with zero differential, the degree-m generators of A that
`PresentedAlgebra.indecomposables` picks: their classes are a basis of the
indecomposables of A^m.  These lifts are A's own generators, and rho, a
rule of the stages, fixes them and kills every generator of stage >= 1.  It
then kills the kernel K of the induced map rho*: H^(m+1)(current model) ->
A^(m+1):

* kernel classes that admit a representative inside Lambda(V_0) become
  stage-1 generators whose differentials are those pure representatives;
* every remaining kernel class gets a generator whose differential is its
  canonical representative, which has no Lambda(V_0)-pure term; its stage is
  one more than the largest stage appearing in the differential.

The second kind never needs a pure part removed.  Call a cochain pure when it
lies in Lambda(V_0), and let P be the span of the classes of pure monomials.

(a) Stage-0 generators have d = 0, so d of a pure monomial is 0.  A monomial
    with one factor g of positive stage has d = (pure) . dg, which is pure
    when g has stage 1 and has no pure term when g has stage >= 2 (every
    earlier kill step made it so); a monomial with two or more such factors
    keeps one in every term of its d.  So d of every basis cochain is pure
    or has no pure term.
(b) Hence the coboundaries B and the cocycles Z split along the pure and
    non-pure columns, and so does Z cap span(non-pivot columns of B), whose
    RREF rows are the class rows: each class row is either pure or has no
    pure term, and its pivot column says which.  Let P_c be the span of the
    pure classes and N that of the others.  A pure monomial reduced modulo B
    stays pure, so its class combines pure class rows only, and a pure class
    row is a combination of pure monomials: P = P_c, and P cap N = 0.
(c) rho kills stage >= 1, so rho* vanishes on N, and K = N (+) (K cap P).
    A pure class row is its pivot monomial, a pure cocycle off the pivots of
    B, so P is spanned by the unit vectors at the pure class positions, and
    K cap P is the kernel of rho* on the pure class positions: the stage-1
    layer is its RREF.  The other targets are the non-pure class rows: in
    class coordinates, the unit vectors at their positions.

The build checks what this rests on: `_kill_step` raises `IntegrityError`
if the class of a pure monomial has an entry at a non-pure class position
(P not inside P_c), and if a non-pure class row has a pure term.

The kill step (`_kill_step`) works on class coordinates and on the codes of
the columns of H^(m+1), whose largest stages it reads once per degree to
split the class positions by the stage of their pivot.  rho fixes the pure
terms, so rho* of a pure class row is its class in A, one reduction in
A^(m+1).  `linalg.kernel_rref` of those constraints gives the stage-1 RREF
from one elimination; with none (for a wedge of spheres, A^(m+1) = 0 for
every m >= 2) it is the unit vectors at the pure positions.  The pure
classes are the sparse class coordinates of the pure columns.  A target's
stage is one more than the largest stage among its columns.  The kill layer
is keyed by column of H^(m+1), not by code: each other target is its class
row as it is, and each stage-1 row is keyed by the pure columns.
`FreeDGCA.extend_codes` checks each term of the layer against the columns
of degree m + 1 and reads their codes once.

The stage-1 layer needs cochains, not classes: each of its RREF rows, a
combination of pure classes, is written as a combination of the pure
monomials whose classes those are, and that combination is d of the new
stage-1 generator.  `linalg.solve_rows` does the whole layer at once: it
eliminates the transposed pure-class rows, one sparse row per pure monomial,
with one augmented column per stage-1 row, and reads each row's canonical
solution (every free coefficient zero) off the one reduced form.  The
solution lists the pure monomials in key order, so each d(g) does too.

The construction keeps one `FreeDGCA` and extends it: with the stage-0
generators of degree m, then with the stage-1 and higher-stage layers in one
batch, the kill step of H^(m+1).  Each batch sorts after every generator
before it, so code positions stay, and the complex keeps the space of each
degree, its class rows and complement (see `dgca`): the coboundaries of
H^(m+1) come from the complement of degree m, and after the build every H^k,
k <= N, is known without an elimination.  The kill step amends the class
rows of H^(m+1) by this lemma.  Let c_1, ..., c_h be the class rows, with
pivots p_1 < ... < p_h, and K the killed span in class coordinates, with
RREF pivot set Q.  Each class row is zero at every other class pivot, so
sum_i x_i c_i has the entry x_i at p_i; the new coboundaries B + K then have
pivots P_B u {p_i : i in Q}.  The rows c_i with i not in Q are zero at all
of those pivots, lie in Z, and are as many as dim Z - rank(B + K); they are
rows of an RREF.  So they are the RREF of Z cap span(non-pivot columns of
B + K), the class rows of the quotient, and the pivot set of coboundary and
class rows together, hence the complement, does not change.  The RREF of K is
the stage-1 rows, which lie on the pure class positions, and the unit
vectors at the non-pure ones, so Q is the union of their pivots.

The kill step is skipped in the top degree N: the generators it would add
have differentials in degree N + 1, which no query within the truncation can
see, while H^m(model) = A^m for every m <= N already holds without them.

Standardness (rho kills every positive-stage generator, and no differential
of stage >= 2 has a Lambda(V_0)-pure term) is proven by the build, through the
lemma above and the `IntegrityError` in `_kill_step`.  So is d^2 = 0: the
lifts have d = 0 and every later d(g) is a cocycle, which the kill layer's
``kills`` vouches for (see `dgca.FreeDGCA.extend_codes`), so an attachment
does not check a built model again.  The model records this as
`BigradedModel.built`, so `formality.formality_verdict` runs `verify_standard`
only on a model that no build vouched for, one made by hand; even mode builds
its own models and does not call it.  rho is data only on V_0: the build maps
each lift to itself and every other generator to one shared zero, and
`BigradedModel` checks a hand-made rho when it is made.  `BigradedModel.verify`
audits d^2 = 0, the stages and rho(d(g)) = 0 on any model, on the codes of
d(g).  There is no repair path.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, IntegrityError, TruncationError
from .gca import Element, Generator, Monomial, monomial_basis
from .dgca import CohomologySpace, FreeDGCA, code_products
from .linalg import add_scaled, kernel_rref, solve_in_span, solve_rows
from .presented import PresentedAlgebra, validate_presentation

_ONE = Fraction(1)


@dataclass
class BigradedModel:
    """A free model of (A, 0) with staged generators and a quasi-iso witness.

    ``rho`` sends each generator to an element of A (zero on stages >= 1);
    it extends multiplicatively and intertwines d with the zero differential.
    ``built`` records how the model was made, as `FreeDGCA.d_is_data` records
    how d was: `build_minimal_model` sets it, since the build proves its model
    standard, and `rename` keeps it.  A model made by hand leaves it unset.
    The mark vouches for the model as the build left it.  Without it, rho is
    checked when the model is made: it has an image for exactly the model's
    generators, each an `Element` of A's generators, zero or of its
    generator's degree; any other rho is an `InputError` naming the generator.
    """

    dgca: FreeDGCA
    rho: dict[Generator, Element]
    algebra: PresentedAlgebra
    built: bool = False

    def __post_init__(self):
        if self.built:
            return
        for g in self.dgca.gens:
            if g not in self.rho:
                raise InputError(f"rho has no image for the generator {g.name!r}")
        for g, image in self.rho.items():
            if g not in self.dgca._position:
                name = g.name if isinstance(g, Generator) else g
                raise InputError(f"rho has an image for {name!r}, which is not a generator")
            if not isinstance(image, Element):
                raise InputError(f"rho({g.name}) = {image!r} is not an Element")
            for mon, _ in image.terms():
                for h in mon.generators():
                    if h not in self.algebra._position:
                        raise InputError(f"rho({g.name}) uses {h.name!r}, which is not in A")
                if mon.degree != g.degree:
                    raise InputError(f"rho({g.name}) has degree {mon.degree}, not {g.degree}")

    @property
    def truncation(self) -> int:
        return self.dgca.truncation

    @property
    def generators(self) -> tuple[Generator, ...]:
        return self.dgca.gens

    def d_of(self, gen: Generator) -> Element:
        """d(gen): d of the one-factor monomial gen."""
        return self.dgca.d_monomial(Monomial.of(gen))

    def _rho_codes(self):
        """rho on codes: a function of the (code, coefficient) terms of a
        degree-k element of the model and k, giving rho of it reduced in A^k
        as {column: c}.  Each image is encoded once, products of images are
        merged by `dgca.code_products` over A's parity table, and the sum is
        reduced once, since the relations span an ideal."""
        algebra, odd = self.algebra, self.algebra._odd
        images = [algebra.terms_of(self.rho[g]) for g in self.dgca.gens]

        def rho_of(terms, degree):
            total = {}
            for code, c in terms:
                value = {(): c}
                for p in [p for p, e in code for _ in range(e)]:
                    product = {}
                    for base, b in value.items():
                        left = [q for q, _ in base if odd[q]]
                        add_scaled(product, b, dict(code_products(images[p], base, left, odd)))
                    value = product
                add_scaled(total, 1, value)
            if not total:
                return {}
            space = algebra.graded_component(degree)
            return space.coboundaries.reduce({space.index[k]: c for k, c in total.items()})

        return rho_of

    # --- structural checks ------------------------------------------------
    def verify(self) -> list[str]:
        """Structural invariants; returns human-readable violations.

        d^2 = 0, the stages of the terms of each d(g), the first too high one
        named in code order (`Monomial.sort_key` order), and rho(d(g)) = 0,
        all read on the codes.  Minimality is not among them: the `FreeDGCA`
        refuses a linear term of d where it grows; nor is rho = 0 on stages
        >= 1, which `verify_standard` checks.
        """
        problems = []
        bad = self.dgca.verify_d_squared()
        if bad is not None:
            problems.append(f"d^2 != 0 at generator {bad[0].name}: {bad[1]}")
        stage_of = [g.stage for g in self.generators]
        rho_of = self._rho_codes()
        for g, dg in self.dgca.d_codes():
            high = [code for code, _ in dg if max([stage_of[p] for p, _ in code]) >= g.stage]
            if high:
                stage = max([stage_of[p] for p, _ in min(high)])
                problems.append(f"d({g.name}) involves stage {stage} >= its own stage {g.stage}")
            if rho_of(dg, g.degree + 1):
                problems.append(f"rho(d({g.name})) != 0")
        return problems

    def rename(self, mapping: Mapping[str, str]) -> "BigradedModel":
        """Rename generators; degrees, stages and ordering are unchanged.

        Nothing is built again: the renamed complex is `FreeDGCA.renamed` of
        this one, which shares the code tables and the keys, copies the class
        rows and complements of the cohomology computed so far, and decodes
        classes with the new names.  `Generator.sort_key` breaks a (degree,
        stage, index) tie by name, so new names could reorder two generators;
        such a renaming is refused with an `InputError` that names both.
        """
        taken = {g.name for g in self.generators if g.name not in mapping}
        names = []
        for g in self.generators:
            new_name = mapping.get(g.name, g.name)
            if new_name != g.name and new_name in taken:
                raise InputError(f"rename target {new_name!r} already in use")
            taken.add(new_name)
            names.append(new_name)
        dgca = self.dgca.renamed(names)
        gmap = dict(zip(self.generators, dgca.gens))
        rho = {gmap[g]: img for g, img in self.rho.items()}
        return BigradedModel(dgca, rho, self.algebra, self.built)


# --------------------------------------------------------------------------
# construction


def build_minimal_model(algebra: PresentedAlgebra, truncation: int) -> BigradedModel:
    """Construct the bigraded minimal model of (A, 0) through ``truncation``."""
    problems = validate_presentation(algebra)
    if problems:
        raise InputError("invalid presentation: " + "; ".join(problems))
    if truncation < 2:
        raise InputError("the model truncation must be at least 2")
    if algebra.truncation < truncation + 1:
        raise TruncationError(
            f"building through degree {truncation} needs algebra data through "
            f"degree {truncation + 1}, but the presentation is truncated at "
            f"{algebra.truncation}"
        )

    model = FreeDGCA((), {}, truncation)
    # H^0, H^1 and H^2 of the empty complex: the lifts amend their spaces
    for k in range(3):
        model.cohomology(k)

    for m in range(2, truncation + 1):
        # stage 0: the generators of A whose classes span Q(A)^m
        model.extend(algebra.indecomposables(m), {})
        if m == truncation:
            break

        h_space = model.cohomology(m + 1)
        if h_space.dimension:
            _kill_step(model, h_space, algebra.graded_component(m + 1))

    # the lifts are the stage-0 generators, and rho kills every other one
    zero = Element.zero()
    rho = {g: zero if g.stage else Element.from_generator(g) for g in model.gens}
    return BigradedModel(model, rho, algebra, built=True)


def _kill_step(model: FreeDGCA, h_space: CohomologySpace, a_space: CohomologySpace) -> None:
    """Kill the kernel of rho*: H^(m+1) = ``h_space`` -> A^(m+1) = ``a_space``.

    The new generators, of degree m, are numbered in the order they are
    made, from the first index above those of A's generators and of every
    generator of the complex.  Their d(g) go to `FreeDGCA.extend_codes` keyed
    by column of ``h_space.keys``: a target's class row is handed on as it
    is, and a stage-1 row is keyed by the pure columns.  See the module
    docstring.
    """
    m = h_space.degree - 1
    index = max(len(a_space.cochains.generators), 1 + max(g.index for g in model.gens))
    keys = h_space.keys
    stage_of = [g.stage for g in model.gens]
    # the largest stage in each degree-(m + 1) monomial; 0 marks a pure one
    top_stage = [max([stage_of[p] for p, _ in code]) for code in keys]
    # the class positions, by the stage of their pivot column; the class rows
    # with a non-pure pivot are the other targets
    pivot_stage = [top_stage[p] for p in h_space._class_pivots]
    pure = [i for i, stage in enumerate(pivot_stage) if not stage]
    rest = [i for i, stage in enumerate(pivot_stage) if stage]
    # the stage-1 layer: the kernel of rho* on the pure classes
    pure_kernel = kernel_rref(_rho_constraints(h_space, pure, a_space), pure)
    if not pure_kernel and not rest:
        return

    # pure classes: images of the Lambda(V_0) monomials in H^(m+1)
    pure_columns, pure_rows = [], []
    for j, stage in enumerate(top_stage):
        if not stage:
            if model.d_basis(keys[j]):
                mon = model.element_of({keys[j]: _ONE})
                raise IntegrityError(f"the pure monomial {mon} is not a cocycle")
            row = h_space.coordinates({j: _ONE})
            if any(pivot_stage[i] for i in row):  # then P is not inside P_c
                raise IntegrityError(f"the class of the pure code {keys[j]} is not pure")
            pure_columns.append(j)
            pure_rows.append(row)
    kills = {min(row) for row in pure_kernel}.union(rest)

    staged = []
    if pure_kernel:
        # every stage-1 row over the pure monomials, from one elimination
        solutions = solve_rows(pure_rows, pure_kernel)
        if solutions is None:
            raise IntegrityError("pure kernel class lost its pure representative")
        for coeffs in solutions:
            staged.append((1, {pure_columns[j]: c for j, c in coeffs.items()}))
    for i in rest:
        row = h_space._class_rows[i]  # handed on as it is, and only read
        stages = [top_stage[j] for j in row]
        if 0 in stages:
            raise IntegrityError("a kill target outside the stage-1 layer has a pure term")
        staged.append((1 + max(stages), row))

    # both layers join the model together, in sorted order
    counters: dict[int, int] = {}
    layer = []
    for i, (stage, dg) in enumerate(staged, index):
        serial = counters[stage] = counters.get(stage, -1) + 1
        layer.append((Generator(f"v{m}_s{stage}_{serial}", m, stage, i), dg))
    model.extend_codes(layer, kills=kills)


def _rho_constraints(h_space, pure, a_space) -> list[dict[int, Fraction]]:
    """rho* on the pure class positions ``pure`` of H^(m+1), into A^(m+1) = ``a_space``.

    rho fixes the lifts and kills every other generator, so rho* of a pure
    class row, whose terms are all pure, is its class in A.  The rows are
    over the reversed positions of ``pure``, as `kernel_rref` takes them.
    A lift is A's own generator, and the lifts keep A's order, so mapping
    the positions of a pure code to A's gives A's code, still sorted.
    """
    if not a_space.dimension:
        return []
    keys, a_index, class_rows = h_space.keys, a_space.index, h_space._class_rows
    to_a = [a_space.cochains._position.get(g) for g in h_space.cochains.gens]
    rows: defaultdict[int, dict[int, Fraction]] = defaultdict(dict)
    for t, i in enumerate(reversed(pure)):
        vec = {}
        for j, c in class_rows[i].items():
            col = a_index.get(tuple([(to_a[p], e) for p, e in keys[j]]))
            if col is None:
                raise IntegrityError(f"the pure code {keys[j]} has no column in A")
            vec[col] = c
        for j, c in a_space.coordinates(vec).items():
            rows[j][t] = c
    return list(rows.values())


# Not called here: perfbench/layertrace.py wraps preimage_in_v0_v1 and
# requires this binding.  It is the only caller of this module's
# monomial_basis and solve_in_span imports, which the tracer also requires.
def preimage_in_v0_v1(
    model: FreeDGCA, gens: Sequence[Generator], pure: Element, m: int
) -> Element | None:
    """Solve pure == d(w) with w a degree-m element of Lambda(V_0).Lambda^+(V_1)."""
    low_stage = [g for g in gens if g.stage <= 1]
    candidates = [
        mon
        for mon in monomial_basis(low_stage, m)
        if mon.max_stage() == 1
    ]
    if not candidates:
        return None
    ambient = model.basis(m + 1)
    index = {mon: i for i, mon in enumerate(ambient)}
    images = []
    for mon in candidates:
        img = model.d_monomial(mon)
        images.append(
            tuple(
                img.coefficient(ambient[i]) for i in range(len(ambient))
            )
        )
    target_vec = tuple(
        pure.coefficient(ambient[i]) for i in range(len(ambient))
    )
    coeffs = solve_in_span(images, target_vec)
    if coeffs is None:
        return None
    return Element({mon: c for mon, c in zip(candidates, coeffs) if c})


# --------------------------------------------------------------------------
# the standardness check


def verify_standard(model: BigradedModel) -> list[str]:
    """Violations of standardness; empty list when the model is standard.

    Standard means rho kills every positive-stage generator and, for stages
    k >= 2, no differential has a Lambda(V_0)-pure component.  The pure terms
    are found on the codes of d(g), through a position -> stage table; only a
    pure component that is found is decoded, for its message.
    """
    dgca = model.dgca
    stage_of = [g.stage for g in dgca.gens]
    problems = []
    for g, dg in dgca.d_codes():
        if g.stage >= 1 and not model.rho[g].is_zero:
            problems.append(
                f"rho({g.name}) = {model.rho[g]} != 0 on stage {g.stage}"
            )
        if g.stage >= 2:
            pure = {
                code: c for code, c in dg if not any(stage_of[p] for p, _ in code)
            }
            if pure:
                problems.append(
                    f"d({g.name}) has the Lambda(V_0)-pure component {dgca.element_of(pure)}"
                )
    return problems
