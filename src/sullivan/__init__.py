"""Exact-arithmetic Sullivan models and formality of cell attachments.

The package builds truncated bigraded minimal models of finitely presented
graded-commutative cohomology rings over Q, forms the twisted complex of a
cell attachment, and decides formality of the attached complex where the
cell-attachment criterion applies.  Everything is computed in exact rational
arithmetic.
"""

from .errors import (
    InputError,
    IntegrityError,
    ParseError,
    SullivanError,
    TruncationError,
)
from .gca import Element, Generator, Monomial, monomial_basis
from .presented import PresentedAlgebra, validate_presentation
from .dgca import FreeDGCA
from .minimal_model import BigradedModel, build_minimal_model, verify_standard
from .attachment import AlphaFunctional, AttachmentElement, AttachmentModel
from .formality import (
    FORMAL,
    INCONCLUSIVE,
    NOT_FORMAL,
    EvenComplexResult,
    FormalityVerdict,
    even_complex_formality,
    formality_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaFunctional",
    "AttachmentElement",
    "AttachmentModel",
    "BigradedModel",
    "Element",
    "EvenComplexResult",
    "FORMAL",
    "FormalityVerdict",
    "FreeDGCA",
    "Generator",
    "INCONCLUSIVE",
    "InputError",
    "IntegrityError",
    "Monomial",
    "NOT_FORMAL",
    "ParseError",
    "PresentedAlgebra",
    "SullivanError",
    "TruncationError",
    "build_minimal_model",
    "even_complex_formality",
    "formality_verdict",
    "monomial_basis",
    "validate_presentation",
    "verify_standard",
]
