"""Exception types shared across the package.

Every error raised on a validation or contract failure derives from
:class:`TorsionLabError`, so callers can catch one type at the boundary.
"""

from __future__ import annotations

__all__ = [
    "TorsionLabError",
    "DuplicateSimplex",
    "InconsistentDimension",
    "NonFlatLocalSystem",
    "FluxError",
    "FluxNotClosed",
    "FluxNotNilpotent",
    "FluxHasDegreeOne",
    "NotOriented",
    "NotTopDegree",
    "NotHermitian",
    "GramNotPositive",
    "NegativeEigenvalue",
    "InvalidFlux",
    "ShapeMismatch",
    "ParityMismatch",
    "DualityViolation",
    "PathInvalid",
    "ParseError",
    "UnknownBuilder",
    "ValidationError",
]


class TorsionLabError(Exception):
    """Base class for all package errors."""


# ---- chain model construction ----

class DuplicateSimplex(TorsionLabError):
    """A top simplex was supplied more than once."""


class InconsistentDimension(TorsionLabError):
    """Top simplices of mixed dimension without the explicit opt-in flag."""


class NonFlatLocalSystem(TorsionLabError):
    """Edge holonomies fail unitarity or the triangle flatness identity."""


class FluxError(TorsionLabError):
    """A flux cochain violates the twisting contract."""


class FluxNotClosed(FluxError):
    """Flux component is not a cocycle."""


class FluxNotNilpotent(FluxError):
    """Cup square of the flux does not vanish."""


class FluxHasDegreeOne(FluxError):
    """Flux with a degree-1 component is rejected outright."""


class NotOriented(TorsionLabError):
    """Operation needs a coherently oriented, connected complex."""


class NotTopDegree(TorsionLabError):
    """Cochain degree does not match the top dimension."""


# ---- spectral ----

class NotHermitian(TorsionLabError):
    """Matrix handed to the eigensolver is not Hermitian."""


class GramNotPositive(TorsionLabError):
    """Gram matrix is not Hermitian positive definite."""


class NegativeEigenvalue(TorsionLabError):
    """A supposedly positive semidefinite operator has a negative eigenvalue."""


# ---- circle bundle ----

class InvalidFlux(TorsionLabError):
    """Bundle data fails the assembled square-zero identities."""


class ShapeMismatch(TorsionLabError):
    """Operator block has the wrong shape for the declared grading."""


class ParityMismatch(TorsionLabError):
    """Vector length or parity label does not match the graded space."""


class DualityViolation(TorsionLabError):
    """Torsion inversion failed beyond tolerance: implementation bug signal."""


class PathInvalid(TorsionLabError):
    """A deformation path produced invalid bundle data at some parameter."""


# ---- workbench ----

class ParseError(TorsionLabError):
    """Model file missing or malformed."""


class UnknownBuilder(TorsionLabError):
    """Builder expression names no catalog entry."""


class ValidationError(TorsionLabError):
    """Parsed model payload violates its schema contract."""
