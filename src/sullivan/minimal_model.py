"""Bigraded minimal Sullivan models of presented algebras with zero differential.

The construction runs degree by degree.  In degree m it first adjoins stage-0
generators mapping onto a basis of the indecomposables of A^m (rho sends each
one to its monomial lift, the differential is zero).  It then kills the
kernel of the induced map rho*: H^(m+1)(current model) -> A^(m+1):

* kernel classes that admit a representative inside Lambda(V_0) become
  stage-1 generators whose differentials are those pure representatives;
* every remaining kernel class gets a generator whose differential is the
  canonical representative with its Lambda(V_0)-pure component removed
  (the pure component is exact on Lambda(V_0).Lambda^+(V_1), and subtracting
  a preimage keeps the class); its stage is one more than the largest stage
  appearing in the differential.

The kill step is skipped in the top degree N: the generators it would add
have differentials in degree N + 1, which no query within the truncation can
see, while H^m(model) = A^m for every m <= N already holds without them.

The same pure-component solve powers `standardize`, which repairs a model
whose positive-stage differentials have acquired Lambda(V_0)-pure parts, by
the substitution y -> y - (preimage).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, IntegrityError, TruncationError
from .gca import Element, Generator, Monomial, monomial_basis, split_by_stage
from .dgca import FreeDGCA
from .linalg import RowSpace, intersect_spans, solve_in_span
from .presented import PresentedAlgebra, validate_presentation

_ZERO = Fraction(0)


@dataclass
class BigradedModel:
    """A free model of (A, 0) with staged generators and a quasi-iso witness.

    ``rho`` sends each generator to an element of A (zero on stages >= 1);
    it extends multiplicatively and intertwines d with the zero differential.
    """

    dgca: FreeDGCA
    rho: dict[Generator, Element]
    algebra: PresentedAlgebra
    truncation: int

    @property
    def generators(self) -> tuple[Generator, ...]:
        return self.dgca.gens

    def generator_named(self, name: str) -> Generator | None:
        for g in self.generators:
            if g.name == name:
                return g
        return None

    def d_of(self, gen: Generator) -> Element:
        return self.dgca.d_on_gens[gen]

    def stage_slice(self, stage: int, degree: int) -> list[Generator]:
        if degree > self.truncation:
            raise TruncationError(
                f"degree {degree} exceeds the model truncation {self.truncation}"
            )
        return [
            g for g in self.generators if g.stage == stage and g.degree == degree
        ]

    def stages(self) -> list[int]:
        return sorted({g.stage for g in self.generators})

    def rho_of(self, element: Element) -> Element:
        """Multiplicative extension of rho, reduced to canonical form in A."""
        return _rho_of(element, self.rho, self.algebra)

    # --- structural checks ------------------------------------------------
    def verify(self) -> list[str]:
        """Structural invariants; returns human-readable violations."""
        problems = []
        bad = self.dgca.verify_d_squared()
        if bad is not None:
            problems.append(f"d^2 != 0 at generator {bad[0].name}: {bad[1]}")
        for g in self.dgca.minimality_violations():
            problems.append(f"d({g.name}) has a linear part")
        for g in self.generators:
            dg = self.d_of(g)
            for mon in dg.monomials():
                if mon.max_stage() >= g.stage:
                    problems.append(
                        f"d({g.name}) involves stage {mon.max_stage()} "
                        f">= its own stage {g.stage}"
                    )
                    break
            if g.stage >= 1 and not self.rho[g].is_zero:
                problems.append(f"rho({g.name}) != 0 on a stage-{g.stage} generator")
            if not self.rho_of(dg).is_zero:
                problems.append(f"rho(d({g.name})) != 0")
        return problems

    # --- basis changes ------------------------------------------------------
    def substitute(self, gen: Generator, delta: Element) -> "BigradedModel":
        """Basis change gen -> gen + delta; every other structure map follows.

        ``delta`` must be homogeneous of the generator's degree and must not
        involve the generator itself.
        """
        if delta.is_zero:
            return self
        if delta.homogeneous_degree() != gen.degree:
            raise InputError("substitution must preserve the degree")
        for mon in delta.monomials():
            if gen in mon.generators():
                raise InputError("substitution may not be recursive")
        old_d = self.dgca.d_on_gens
        replacement = Element.from_generator(gen) - delta  # old gen in the new basis
        new_d: dict[Generator, Element] = {}
        for g in self.generators:
            if g == gen:
                new_d[g] = old_d[g] + self.dgca.d(delta)
            else:
                new_d[g] = _substitute_in_element(old_d[g], gen, replacement)
        new_rho = dict(self.rho)
        new_rho[gen] = self.algebra.reduce(self.rho[gen] + self.rho_of(delta))
        return BigradedModel(
            FreeDGCA(self.generators, new_d, self.truncation),
            new_rho,
            self.algebra,
            self.truncation,
        )

    def rename(self, mapping: Mapping[str, str]) -> "BigradedModel":
        """Rename generators; degrees, stages and ordering are unchanged."""
        taken = {g.name for g in self.generators if g.name not in mapping}
        gmap: dict[Generator, Generator] = {}
        for g in self.generators:
            new_name = mapping.get(g.name, g.name)
            if new_name != g.name and new_name in taken:
                raise InputError(f"rename target {new_name!r} already in use")
            taken.add(new_name)
            gmap[g] = Generator(new_name, g.degree, g.stage, g.index)
        new_d = {
            gmap[g]: _map_generators(dg, gmap)
            for g, dg in self.dgca.d_on_gens.items()
        }
        new_rho = {gmap[g]: img for g, img in self.rho.items()}
        return BigradedModel(
            FreeDGCA(tuple(gmap[g] for g in self.generators), new_d, self.truncation),
            new_rho,
            self.algebra,
            self.truncation,
        )


def _map_generators(element: Element, gmap: Mapping[Generator, Generator]) -> Element:
    out: dict[Monomial, Fraction] = {}
    for mon, c in element.terms():
        powers = tuple((gmap.get(g, g), e) for g, e in mon.powers)
        out[Monomial(powers)] = c
    return Element(out)


def _substitute_in_element(element: Element, gen: Generator, replacement: Element) -> Element:
    """Replace every occurrence of ``gen`` by ``replacement``."""
    out = Element.zero()
    for mon, coeff in element.terms():
        e = mon.exponent(gen)
        if e == 0:
            out = out + Element.from_monomial(mon, coeff)
            continue
        idx = [g for g, _ in mon.powers].index(gen)
        prefix = Element.from_monomial(Monomial(mon.powers[:idx]))
        suffix = Element.from_monomial(Monomial(mon.powers[idx + 1 :]))
        out = out + coeff * (prefix * replacement**e * suffix)
    return out


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

    gens: list[Generator] = []
    d_map: dict[Generator, Element] = {}
    rho: dict[Generator, Element] = {}
    next_index = len(algebra.generators)

    for m in range(2, truncation + 1):
        # stage 0: lifts of the indecomposables of A^m
        for lift in algebra.indecomposables(m).lifts:
            if lift.word_length != 1:
                raise IntegrityError(
                    f"indecomposable lift {lift} is not a single generator"
                )
            g = lift.generators()[0]
            gens.append(g)
            d_map[g] = Element.zero()
            rho[g] = Element.from_monomial(lift)
        if m == truncation:
            break

        model = FreeDGCA(gens, d_map, truncation)
        h_space = model.cohomology(m + 1)
        if h_space.dimension == 0:
            continue
        target_component = algebra.graded_component(m + 1)

        # kernel of rho*: H^(m+1) -> A^(m+1), in class coordinates
        constraint_rows: dict[int, dict[int, Fraction]] = {}
        for i, cls in enumerate(h_space.classes):
            image = _rho_of(cls.representative, rho, algebra)
            for j, c in enumerate(target_component.coordinates(image)):
                if c:
                    constraint_rows.setdefault(j, {})[i] = c
        constraints = RowSpace()
        for row in constraint_rows.values():
            constraints.insert(row)
        kernel = constraints.kernel(h_space.dimension)
        if not kernel:
            continue

        # pure classes: images of the Lambda(V_0) monomials in H^(m+1)
        stage0 = [g for g in gens if g.stage == 0]
        pure_monomials = monomial_basis(stage0, m + 1)
        pure_vectors: list[tuple[Fraction, ...]] = []
        for mon in pure_monomials:
            cls = h_space.class_of(Element.from_monomial(mon))
            pure_vectors.append(cls.coordinates)
        pure_rows = [
            {i: c for i, c in enumerate(vec) if c} for vec in pure_vectors
        ]
        pure_rows = [r for r in pure_rows if r]

        counters: dict[int, int] = {}

        def new_generator(stage: int, target: Element):
            nonlocal next_index
            serial = counters.get(stage, 0)
            counters[stage] = serial + 1
            g = Generator(f"v{m}_s{stage}_{serial}", m, stage, next_index)
            next_index += 1
            gens.append(g)
            d_map[g] = target
            rho[g] = Element.zero()

        # stage-1 layer: kernel classes with a representative in Lambda(V_0)
        pure_kernel = intersect_spans(kernel, pure_rows)
        handled = RowSpace()
        for row in pure_kernel:
            vec = tuple(row.get(i, _ZERO) for i in range(h_space.dimension))
            coeffs = solve_in_span(pure_vectors, vec)
            if coeffs is None:
                raise IntegrityError("pure kernel class lost its pure representative")
            target = Element(
                {mon: c for mon, c in zip(pure_monomials, coeffs) if c}
            )
            new_generator(1, target)
            handled.insert(row)

        # higher stages: remaining kernel classes, purged of pure components.
        # The purge preimages may involve the stage-1 generators just added,
        # so rebuild the ambient dgca first.
        leftovers = RowSpace()
        for vec in kernel:
            leftovers.insert(handled.reduce(vec))
        leftover_rows = leftovers.fraction_rows()
        if leftover_rows:
            extended = FreeDGCA(gens, d_map, truncation)
            for row in leftover_rows:
                target = Element.zero()
                for i, c in row.items():
                    target = target + c * h_space.classes[i].representative
                pure, rest = split_by_stage(target)
                if rest.is_zero:
                    raise IntegrityError(
                        "a kernel class with a pure representative escaped the stage-1 layer"
                    )
                if not pure.is_zero:
                    w = preimage_in_v0_v1(extended, gens, pure, m)
                    if w is None:
                        raise IntegrityError(
                            "pure component of a kernel representative is not "
                            "exact; construction invariant broken"
                        )
                    target = target - extended.d(w)
                    still_pure, _ = split_by_stage(target)
                    if not still_pure.is_zero:
                        raise IntegrityError("pure component survived its purge")
                stage = 1 + max(mon.max_stage() for mon in target.monomials())
                new_generator(stage, target)

    return BigradedModel(FreeDGCA(gens, d_map, truncation), rho, algebra, truncation)


def _rho_of(element: Element, rho: Mapping[Generator, Element], algebra: PresentedAlgebra) -> Element:
    out = Element.zero()
    for mon, coeff in element.terms():
        value = Element.scalar(coeff)
        for g, e in mon.powers:
            image = rho[g]
            if image.is_zero:
                value = Element.zero()
                break
            for _ in range(e):
                value = algebra.product(value, image)
            if value.is_zero:
                break
        out = out + value
    return algebra.reduce(out) if not out.is_zero else out


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
# standardisation


def stage_slice(model: BigradedModel, stage: int, degree: int) -> list[Generator]:
    """Generators of one stage and one degree, in canonical order."""
    return model.stage_slice(stage, degree)


def verify_standard(model: BigradedModel) -> list[str]:
    """Violations of standardness; empty list when the model is standard.

    Standard means rho kills every positive-stage generator and, for stages
    k >= 2, no differential has a Lambda(V_0)-pure component.
    """
    problems = []
    for g in model.generators:
        if g.stage >= 1 and not model.rho[g].is_zero:
            problems.append(
                f"rho({g.name}) = {model.rho[g]} != 0 on stage {g.stage}"
            )
        if g.stage >= 2:
            pure, _ = split_by_stage(model.d_of(g))
            if not pure.is_zero:
                problems.append(
                    f"d({g.name}) has the Lambda(V_0)-pure component {pure}"
                )
    return problems


def standardize(model: BigradedModel) -> BigradedModel:
    """Remove Lambda(V_0)-pure components from all stage >= 2 differentials.

    Each offending generator y with d(y) = u0 + u1 (u0 the pure part) is
    replaced by y - w where d(w) = u0; the substitution rewrites every other
    differential mentioning y.  Idempotent; already-standard models are
    returned unchanged.
    """
    for g in model.generators:
        if g.stage >= 1 and not model.rho[g].is_zero:
            raise InputError(
                f"rho({g.name}) != 0: not a model with a standard-ready witness"
            )
    staged = sorted(
        (g for g in model.generators if g.stage >= 2),
        key=lambda g: (g.stage, g.degree, g.index),
    )
    for g in staged:
        pure, _ = split_by_stage(model.d_of(g))
        if pure.is_zero:
            continue
        w = preimage_in_v0_v1(model.dgca, model.generators, pure, g.degree)
        if w is None:
            raise IntegrityError(
                f"the pure component of d({g.name}) is not exact on "
                "Lambda(V_0).Lambda^+(V_1); the input is not a valid model"
            )
        model = model.substitute(g, -1 * w)
    return model
