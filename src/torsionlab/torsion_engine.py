"""Torsion scalars of graded and Z2-graded complexes.

The Reidemeister torsion of a finite complex is assembled degree by
degree from Laplacian pseudo-determinants,

    log tau = sum_p (-1)^(p+1) * (p/2) * log pdet(Delta_p),

which telescopes to sum_p (-1)^p * (1/2) * log pdet(delta_p^+ delta_p);
both sums are computed, from one build of each delta_p^+ delta_p, and
compared on every call.  The twisted scalar
of a Z2-graded complex is the parity-split analogue,

    log tau = (1/2) log pdet(D_even^+ D_even) - (1/2) log pdet(D_odd^+ D_odd),

with adjoints taken against the parity Grams.  Grams that are None (a
complex without explicit Grams, graded or twisted) are the identity:
adjoints are plain conjugate transposes and the solves factor nothing.
One block builder serves both: a graded complex is a chain of spaces
(its degrees) and a Z2-graded one a cycle of two (its parities), and
each adjoint and each product d^+ d, d d^+ is formed once per call.
Harmonic bases of the Laplacians ride along on the returned element,
and kernel dimensions double as cohomology dimensions (checked against
rank-nullity in the test suite).  Only the Laplacian solves compute
eigenvectors; the delta^+ delta solves read eigenvalues alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_models import GradedCochainComplex, TwistedComplex
from .errors import ValidationError
from .spectral import (
    HarmonicBasis,
    harmonic_basis_of,
    hermitian_spectrum,
    pseudodet_of,
)

__all__ = [
    "TorsionElement",
    "laplacians",
    "gram_adjoint",
    "reidemeister_torsion",
    "twisted_torsion",
    "cohomology_dimensions",
    "twisted_cohomology_dimensions",
]

REIDEMEISTER_TAG = "p-weighted-v1"
TWISTED_TAG = "parity-split-v1"
_CONVENTION_CHECK_TOL = 1e-10
_TINY = np.finfo(np.float64).tiny
_LOG_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True, eq=False)
class TorsionElement:
    """Torsion scalar in log form, plus the harmonic data that frames it.

    ``kernel_dims`` are the Laplacian kernel dimensions, one entry per
    degree (graded case) or per parity (twisted case); they equal the
    corresponding cohomology dimensions.  ``warnings`` collects spectral
    gap complaints and convention cross-check failures.
    """

    log_scalar: float
    harmonic_bases: tuple[HarmonicBasis, ...]
    convention_tag: str
    kernel_dims: tuple[int, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # past log(float max), tau or 1/tau would read inf; NaN fails too
        if not abs(self.log_scalar) <= _LOG_MAX:
            raise ValidationError(
                f"torsion log-scalar {self.log_scalar!r} is outside "
                f"[-{_LOG_MAX:.2f}, {_LOG_MAX:.2f}]; tau is not a float64"
            )

    @property
    def scalar(self) -> float:
        return float(np.exp(self.log_scalar))

    @property
    def inverse_scalar(self) -> float:
        return float(np.exp(-self.log_scalar))

    @property
    def acyclic(self) -> bool:
        """True when every kernel vanishes and the scalar is an honest
        determinant rather than a density on harmonic lines."""
        return all(k == 0 for k in self.kernel_dims)

    def to_json(self) -> dict:
        return {
            "log_scalar": self.log_scalar,
            "scalar": self.scalar,
            "kernel_dims": list(self.kernel_dims),
            "convention": self.convention_tag,
            "warnings": list(self.warnings),
        }


def gram_adjoint(
    op: np.ndarray,
    gram_source: np.ndarray | None,
    gram_target: np.ndarray | None,
) -> np.ndarray:
    """Adjoint of op against the given inner products:
    op^+ = G_source^{-1} op^* G_target."""
    out = op.conj().T
    if gram_target is not None:
        out = out @ gram_target
    if gram_source is not None:
        out = np.linalg.solve(gram_source, out)
    return out


def _unless_underflowed(square: np.ndarray, op: np.ndarray, what: str) -> np.ndarray:
    """Pass op^+ op (or op op^+) through, refusing it when op is nonzero
    but the product fell below the normal float64 range.  Grams can do
    that to in-range entries, and a zero product would enlarge the
    kernel; overflow to inf is refused by the solver."""
    if square.size and float(np.abs(square).max()) < _TINY and op.any():
        raise ValidationError(
            f"{what}: the Gram-weighted square of a nonzero coboundary "
            "underflowed float64"
        )
    return square


def _spaces(C: GradedCochainComplex | TwistedComplex) -> tuple:
    """(dims, maps, grams, labels, cyclic): maps[p] leaves space p for
    space p + 1 and, when cyclic, maps[-1] enters space 0.  The spaces
    are the degrees or the parities; Grams are None without explicit
    Grams."""
    if isinstance(C, TwistedComplex):
        labels = ("d_even (even parity)", "d_odd (odd parity)")
        return (C.even_dim, C.odd_dim), (C.d_even, C.d_odd), (C.gram_even, C.gram_odd), labels, True
    n = len(C.dims)
    labels = tuple(f"degree {p}" for p in range(n))
    return C.dims, [C.delta(p) for p in range(n)], C.gram or (None,) * n, labels, False


def _blocks(C: GradedCochainComplex | TwistedComplex) -> list[tuple]:
    """Per space p: (d_p^+ d_p, the Laplacian, the Gram or None).  Each
    adjoint and each product is built, and refused if it underflowed,
    once for both torsion sums."""
    dims, maps, grams, labels, cyclic = _spaces(C)
    k = len(dims)
    adj = [gram_adjoint(d, grams[p], grams[(p + 1) % k] if cyclic or p + 1 < k else None)
           for p, d in enumerate(maps)]
    out = []
    for p, d in enumerate(maps):
        lap = up = _unless_underflowed(adj[p] @ d, d, labels[p])
        if p > 0 or cyclic:
            lap = up + _unless_underflowed(maps[p - 1] @ adj[p - 1], maps[p - 1], labels[p - 1])
        out.append((up, lap, grams[p]))
    return out


def laplacians(C: GradedCochainComplex) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hodge Laplacians Delta_p = delta_p^+ delta_p + delta_{p-1} delta_{p-1}^+,
    returned as (matrix, gram) pairs in degree order."""
    return [
        (lap, np.eye(n) if gram is None else gram)
        for n, (_, lap, gram) in zip(C.dims, _blocks(C))
    ]


def reidemeister_torsion(
    C: GradedCochainComplex,
    *,
    kernel_tol: float | None = None,
) -> TorsionElement:
    """Degree-weighted torsion scalar with harmonic bases per degree."""
    blocks = _blocks(C)
    notes: list[str] = []

    log_scalar = 0.0
    bases: list[HarmonicBasis] = []
    kernel_dims: list[int] = []
    for p, (_, lap, gram) in enumerate(blocks):
        dec = hermitian_spectrum(lap, gram, kernel_tol=kernel_tol)
        pd = pseudodet_of(dec)
        notes.extend(pd.warnings)
        log_scalar += (-1.0) ** (p + 1) * (p / 2.0) * pd.log_value
        bases.append(harmonic_basis_of(dec, label=f"H^{p}"))
        kernel_dims.append(pd.kernel_dim)

    # telescoped form over delta^+ delta only; must match the weighted sum
    alt = 0.0
    for p, (up, _, gram) in enumerate(blocks):
        pd = pseudodet_of(hermitian_spectrum(up, gram, kernel_tol=kernel_tol, vectors=False))
        alt += (-1.0) ** p * 0.5 * pd.log_value
    if abs(log_scalar - alt) > _CONVENTION_CHECK_TOL * max(1.0, abs(log_scalar)):
        notes.append(
            f"telescoping cross-check drifted: weighted {log_scalar!r} vs telescoped {alt!r}"
        )

    return TorsionElement(
        log_scalar=log_scalar,
        harmonic_bases=tuple(bases),
        convention_tag=REIDEMEISTER_TAG,
        kernel_dims=tuple(kernel_dims),
        warnings=tuple(notes),
    )


def twisted_torsion(
    T: TwistedComplex,
    *,
    kernel_tol: float | None = None,
) -> TorsionElement:
    """Parity-split torsion of a Z2-graded complex."""
    (sq_even, lap_even, ge), (sq_odd, lap_odd, go) = _blocks(T)
    pd_even = pseudodet_of(hermitian_spectrum(sq_even, ge, kernel_tol=kernel_tol, vectors=False))
    pd_odd = pseudodet_of(hermitian_spectrum(sq_odd, go, kernel_tol=kernel_tol, vectors=False))
    log_scalar = 0.5 * pd_even.log_value - 0.5 * pd_odd.log_value

    dec_even = hermitian_spectrum(lap_even, ge, kernel_tol=kernel_tol)
    dec_odd = hermitian_spectrum(lap_odd, go, kernel_tol=kernel_tol)

    notes = list(pd_even.warnings) + list(pd_odd.warnings)
    return TorsionElement(
        log_scalar=log_scalar,
        harmonic_bases=(
            harmonic_basis_of(dec_even, label="even"),
            harmonic_basis_of(dec_odd, label="odd"),
        ),
        convention_tag=TWISTED_TAG,
        kernel_dims=(dec_even.kernel_dimension, dec_odd.kernel_dimension),
        warnings=tuple(notes),
    )


def _rank_nullity(C: GradedCochainComplex | TwistedComplex) -> tuple[int, ...]:
    """dim - rank of the map out - rank of the map in, per space.
    Independent of the spectral route; ranks come from SVD."""
    dims, maps, _, _, cyclic = _spaces(C)
    ranks = [int(np.linalg.matrix_rank(d)) if d.size else 0 for d in maps]
    return tuple(
        n - ranks[p] - (ranks[p - 1] if p > 0 or cyclic else 0) for p, n in enumerate(dims)
    )


def cohomology_dimensions(C: GradedCochainComplex) -> tuple[int, ...]:
    """Betti numbers by rank-nullity: dim ker delta_p - rank delta_{p-1}."""
    return _rank_nullity(C)


def twisted_cohomology_dimensions(T: TwistedComplex) -> tuple[int, int]:
    """(even, odd) cohomology dimensions of a Z2-graded complex by
    rank-nullity."""
    return _rank_nullity(T)
