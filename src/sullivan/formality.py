"""Formality verdicts for cell attachments.

Given a standard bigraded model of H^*(X) and an attaching functional alpha
for an n-cell, the verdict is decided by the cell-attachment criterion:

* alpha == 0 (a torsion class dies in rational homotopy): the attachment is
  rationally a wedge with a sphere, hence formal;
* alpha vanishes on every stage-0 generator of degree n-1 (the Hurewicz image
  of the attaching class is zero, equivalently [u] != 0), alpha is special
  (supported on stage 1 only) and [u] is decomposable: formal;
* alpha is non-torsion with [u] != 0 and indecomposable: not formal;
* anything else is outside the criterion and reported as Inconclusive with
  machine-readable diagnostics -- in particular a decomposable [u] with a
  non-special alpha proves nothing, and such attachments can genuinely fail
  to be formal.

`even_complex_formality` runs the even-cell procedure: a complex whose
cohomology is generated in one even degree 2k with cells of dimension at most
4k is assembled cell by cell from the wedge skeleton, and every attaching
functional is automatically special, so each step lands in the formal clauses
above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .attachment import AlphaFunctional, AttachmentModel
from .errors import InputError, IntegrityError
from .fixtures import alias_monomial_targets
from .gca import Element, Generator, monomial_basis
from .linalg import RowSpace
from .minimal_model import BigradedModel, build_minimal_model, verify_standard
from .presented import PresentedAlgebra, validate_presentation

_ONE = Fraction(1)

FORMAL = "Formal"
NOT_FORMAL = "NotFormal"
INCONCLUSIVE = "Inconclusive"

BASE_ASSUMPTION = (
    "the input algebra is the rational cohomology of a simply connected "
    "formal CW complex"
)
GRADATION_ASSUMPTION = (
    "specialness is judged against the standard lower gradation constructed "
    "here (stages as printed by the model command)"
)


@dataclass
class FormalityVerdict:
    """Outcome of the criterion, with the clause that fired and a witness."""

    status: str
    clause: str
    witness: dict
    assumptions: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "clause": self.clause,
            "witness": self.witness,
            "assumptions": list(self.assumptions),
        }


def _hurewicz_zero(model: BigradedModel, alpha: AlphaFunctional) -> bool:
    return not any(alpha.value(g) for g in model.stage_slice(0, alpha.n - 1))


def _special(alpha: AlphaFunctional) -> tuple[bool, list[Generator]]:
    violators = [g for g in alpha.support() if g.stage != 1]
    return not violators, violators


def _witness_text(witness) -> list[str]:
    return [
        (f"{c}*{c1}*{c2}" if c != 1 else f"{c1}*{c2}")
        for c, c1, c2 in witness
    ]


def _u_text(attached: AttachmentModel) -> str:
    body = attached.u_body_representative()
    return f"[{body}]" if body is not None else "[u] (a new class)"


def formality_verdict(
    model: BigradedModel, alpha: AlphaFunctional
) -> FormalityVerdict:
    """Apply the cell-attachment criterion to one attachment.

    A model that is not standard is refused.  The caller's model is data: a
    hand-made rho or stage table that no build vouched for.  A model from
    `build_minimal_model` is standard by construction, so even mode, which
    builds its own, does not check it.
    """
    problems = verify_standard(model)
    if problems:
        raise InputError("the model is not standard: " + "; ".join(problems))
    return _decide(AttachmentModel(model, alpha))


def _decide(attached: AttachmentModel) -> FormalityVerdict:
    """The criterion on an attachment whose base is known to be standard."""
    model, alpha = attached.base, attached.alpha
    assumptions = [BASE_ASSUMPTION, GRADATION_ASSUMPTION]

    if alpha.is_zero:
        return FormalityVerdict(
            FORMAL,
            "torsion",
            {
                "alpha": "0",
                "note": "the attachment is rationally a wedge with a sphere; "
                "u is a new indecomposable class",
            },
            assumptions,
        )

    hurewicz_zero = _hurewicz_zero(model, alpha)
    u = attached.u_class()
    if hurewicz_zero == u.is_zero:
        raise IntegrityError(
            "Hurewicz test and u-class vanishing disagree; model corrupt"
        )
    if not hurewicz_zero:
        offenders = [
            g.name for g in alpha.support() if g.stage == 0 and alpha.value(g)
        ]
        return FormalityVerdict(
            INCONCLUSIVE,
            "hurewicz-nonzero",
            {
                "failed": ["the Hurewicz image of the attaching class is nonzero"],
                "stage0_support": offenders,
                "note": "the criterion assumes the attaching class maps to "
                "zero in rational homology",
            },
            assumptions,
        )

    special, violators = _special(alpha)
    decomposable, witness = attached.u_decomposable()

    if decomposable and special:
        return FormalityVerdict(
            FORMAL,
            "special-decomposable",
            {
                "u": _u_text(attached),
                "decomposition": _witness_text(witness),
                "special_support": [g.name for g in alpha.support()],
            },
            assumptions,
        )
    if not decomposable:
        return FormalityVerdict(
            NOT_FORMAL,
            "indecomposable-u",
            {
                "u": _u_text(attached),
                "u_nonzero": True,
                "u_indecomposable": True,
                "cell_degree_cohomology_dimension": attached.cohomology(alpha.n).dimension,
            },
            assumptions,
        )
    return FormalityVerdict(
        INCONCLUSIVE,
        "nonspecial-decomposable",
        {
            "failed": ["alpha is supported outside stage 1"],
            "violators": [f"{g.name} (stage {g.stage}, degree {g.degree})" for g in violators],
            "u": _u_text(attached),
            "decomposition": _witness_text(witness),
            "note": "a decomposable u with a non-special attachment proves "
            "nothing; such attachments can fail to be formal",
        },
        assumptions,
    )


# ---------------------------------------------------------------------------
# even-cell complexes


@dataclass
class EvenComplexResult:
    """Per-cell verdicts plus the presentation of the assembled complex.

    ``final`` presents the cohomology after the last cell shown formal along
    a nonzero alpha (the wedge skeleton when there is none).  A torsion cell
    (alpha = 0) is shown formal but ends the chain, and it is not in
    ``final``.  Intermediate presentations are not kept.
    """

    half_degree: int
    verdicts: list[FormalityVerdict]
    final: PresentedAlgebra

    @property
    def status(self) -> str:
        for v in self.verdicts:
            if v.status != FORMAL:
                return v.status
        return FORMAL


def even_complex_formality(
    algebra: PresentedAlgebra,
    k: int,
    cells: Sequence[tuple[int, Sequence[tuple[str, Fraction | int | str]]]],
) -> EvenComplexResult:
    """Assemble an even complex cell by cell and decide formality per cell.

    ``algebra`` contributes the degree-2k generators (the wedge skeleton is
    derived from them; its relations are all quadratic monomials).  Each cell
    is a pair (dimension, alpha coefficient pairs); dimensions must equal 4k.
    """
    if k < 1:
        raise InputError("the half-degree k must be at least 1")
    bad = [g.name for g in algebra.generators if g.degree != 2 * k]
    if bad:
        raise InputError(
            f"cohomology must be generated in degree {2 * k}; "
            "generators outside it: " + ", ".join(bad)
        )
    if not algebra.generators:
        raise InputError("no generators; nothing to attach to")
    for n, _ in cells:
        if n != 4 * k:
            raise InputError(
                f"cell dimension {n} violates dim X <= 4k = {4 * k}"
            )

    gens = [
        Generator(g.name, g.degree, 0, i)
        for i, g in enumerate(algebra.generators)
    ]
    relations = [
        Element.from_monomial(mon) for mon in monomial_basis(gens, 4 * k)
    ]
    current = PresentedAlgebra(gens, relations, truncation=4 * k + 1)

    verdicts: list[FormalityVerdict] = []
    degenerate_reason: str | None = None

    for cell_index, (n, pairs) in enumerate(cells):
        if degenerate_reason is not None:
            verdicts.append(
                FormalityVerdict(
                    INCONCLUSIVE,
                    "base-not-established",
                    {"failed": [degenerate_reason], "cell": cell_index},
                    [BASE_ASSUMPTION],
                )
            )
            continue
        model = build_minimal_model(current, 4 * k)
        model = model.rename(alias_monomial_targets(model))
        _check_even_slices(model, k)
        alpha = AlphaFunctional.build(model, n, pairs)
        attached = AttachmentModel(model, alpha)
        verdict = _decide(attached)
        verdicts.append(verdict)
        if verdict.status != FORMAL:
            degenerate_reason = (
                f"cell {cell_index} was not shown formal; later attachments "
                "have no formal base"
            )
            continue
        if alpha.is_zero:
            degenerate_reason = (
                "a torsion cell adds an indecomposable top class, so the "
                "cohomology is no longer generated in degree 2k"
            )
            continue
        current = _synthesize_presentation(attached, gens, k)

    return EvenComplexResult(k, verdicts, current)


def _check_even_slices(model: BigradedModel, k: int):
    """The degree-(4k-1) slice must be pure stage 1 (specialness for free)."""
    stages = {g.stage for g in model.generators if g.degree == 4 * k - 1}
    if 0 in stages:
        raise IntegrityError(
            "stage-0 generators in degree 4k-1 contradict even generation"
        )
    if stages - {1}:
        raise IntegrityError(
            "stage >= 2 generators in degree 4k-1 contradict even generation"
        )


def _synthesize_presentation(
    attached: AttachmentModel, gens: Sequence[Generator], k: int
) -> PresentedAlgebra:
    """Presentation of the attached complex from its computed cohomology.

    Generators are the degree-2k classes; relations are the kernel of the
    multiplication map Sym^2(H^2k) -> H^4k of the attachment cohomology.  The
    generators are the model's stage-0 cocycles, so the products g_i*g_j are
    its degree-4k keys with stage-0 positions only, in key order, and the
    class of each is that of its column.  Degrees above 4k vanish for
    dimension reasons and stay outside the synthesized truncation.
    """
    n = 4 * k
    target = attached.cohomology(n)
    dgca = attached.base.dgca
    stage_of = [g.stage for g in dgca.gens]
    products = [code for code in dgca.keys(n) if not any(stage_of[p] for p, _ in code)]
    # one constraint row per class coordinate of H^4k, over the products
    constraints: dict[int, dict[int, Fraction]] = {}
    for j, code in enumerate(products):
        for i, c in target.coordinates({target.index[code]: _ONE}).items():
            constraints.setdefault(i, {})[j] = c
    relations = [
        dgca.element_of({products[j]: c for j, c in vec.items()})
        for vec in RowSpace(constraints.values()).kernel(len(products))
    ]
    synthesized = PresentedAlgebra(gens, relations, truncation=n + 1)
    problems = validate_presentation(synthesized)
    if problems:
        raise IntegrityError(
            "synthesized presentation invalid: " + "; ".join(problems)
        )
    for m in range(0, n + 1):
        if synthesized.graded_component(m).dimension != attached.cohomology(m).dimension:
            raise IntegrityError(
                f"synthesized presentation disagrees with the attachment "
                f"cohomology in degree {m}"
            )
    return synthesized
