"""Torsion scalars of graded and Z2-graded complexes.

The Reidemeister torsion of a finite complex is assembled degree by
degree from Laplacian pseudo-determinants,

    log tau = sum_p (-1)^(p+1) * (p/2) * log pdet(Delta_p),

which telescopes to sum_p (-1)^p * (1/2) * log pdet(delta_p^+ delta_p);
both sums are computed and compared on every call.  The twisted scalar
of a Z2-graded complex is the same telescoped sum over its cycle of two
spaces, the parities,

    log tau = (1/2) log pdet(D_even^+ D_even) - (1/2) log pdet(D_odd^+ D_odd),

with adjoints taken against the parity Grams.  This module is the one
place that knows the Gram weighting.  With G_p = L_p L_p* (the
``spectral.GramFactor`` records each complex made when it checked its
Grams), ``_squares`` forms each Gram-weighted coboundary
w_p = L_{p+1}* d_p L_p^{-*} once per call, and w_p* w_p; ``_blocks``
adds the weighted Laplacian w_p* w_p + w_{p-1} w_{p-1}*.  They are
Hermitian and congruent to d_p^+ d_p and the Hodge Laplacian, by L_p*,
so no Gram reaches the eigensolver.  Without Grams, w_p is d_p itself.
A graded complex is a chain of spaces (its degrees) and a Z2-graded one
a cycle of two, and one solve loop (``_solve``) serves both torsions:
per space, the Laplacian with eigenvectors, then w_p* w_p for
eigenvalues alone.  Harmonic bases of the Laplacians ride along on the
returned element, and kernel dimensions double as cohomology dimensions
(checked against rank-nullity in the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_models import GradedCochainComplex, TwistedComplex
from .errors import ValidationError
from .spectral import (
    HarmonicBasis,
    _identity_factor,
    harmonic_basis_of,
    hermitian_spectrum,
    pseudodet_of,
)

__all__ = [
    "TorsionElement",
    "laplacians",
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


def _unless_underflowed(square: np.ndarray, op: np.ndarray, what: str) -> np.ndarray:
    """Pass w* w (or w w*) through, refusing it when the coboundary op
    behind w is nonzero but the product fell below the normal float64
    range.  Grams can do that to in-range entries, and a zero product
    would enlarge the kernel; overflow to inf is refused by the solver."""
    if square.size and float(np.abs(square).max()) < _TINY and op.any():
        raise ValidationError(
            f"{what}: the Gram-weighted square of a nonzero coboundary "
            "underflowed float64"
        )
    return square


def _spaces(C: GradedCochainComplex | TwistedComplex) -> tuple:
    """(dims, maps, grams, labels, cyclic): maps[p] leaves space p for
    space p + 1 and, when cyclic, maps[-1] enters space 0.  The spaces
    are the degrees or the parities; grams[p] is the GramFactor record of
    space p, or None without explicit Grams, and grams[p + 1] that of the
    target of maps[p] (past a graded top degree, the empty identity)."""
    if isinstance(C, TwistedComplex):
        labels = ("d_even (even parity)", "d_odd (odd parity)")
        grams = C._gram_factors or (None, None)
        return (C.even_dim, C.odd_dim), (C.d_even, C.d_odd), grams + grams[:1], labels, True
    n = len(C.dims)
    labels = tuple(f"degree {p}" for p in range(n))
    grams = C._gram_factors + (_identity_factor(0),) if C._gram_factors else (None,) * (n + 1)
    return C.dims, [C.delta(p) for p in range(n)], grams, labels, False


def _squares(C: GradedCochainComplex | TwistedComplex) -> tuple:
    """(w, squares, spaces): per space p, the Gram-weighted coboundary
    w_p = L_{p+1}* d_p L_p^{-*} (d_p itself without Grams) and w_p* w_p,
    with ``_spaces(C)``.  Overflow is silenced by ``_blocks`` and refused
    by the solver; the duality transport re-forms squares already solved."""
    spaces = _spaces(C)
    _, maps, grams, _, _ = spaces
    w = [
        d if grams[p] is None
        else grams[p + 1].lower.conj().T @ d @ grams[p].lower_inverse.conj().T
        for p, d in enumerate(maps)
    ]
    return w, [x.conj().T @ x for x in w], spaces


def _blocks(C: GradedCochainComplex | TwistedComplex) -> list[tuple]:
    """Per space p: (w_p* w_p, the weighted Laplacian
    w_p* w_p + w_{p-1} w_{p-1}*, the GramFactor or None).  Each product is
    built, and refused if it underflowed, once for both torsion sums; one
    that overflowed is refused by the solver."""
    out = []
    with np.errstate(over="ignore"):
        w, squares, (_, maps, grams, labels, cyclic) = _squares(C)
        for p, up in enumerate(squares):
            lap = up = _unless_underflowed(up, maps[p], labels[p])
            if p > 0 or cyclic:
                q = p - 1
                lap = up + _unless_underflowed(w[q] @ w[q].conj().T, maps[q], labels[q])
            out.append((up, lap, grams[p]))
    return out


def laplacians(C: GradedCochainComplex) -> list[tuple[np.ndarray, np.ndarray]]:
    """Hodge Laplacians Delta_p = delta_p^+ delta_p + delta_{p-1} delta_{p-1}^+,
    returned as (matrix, gram) pairs in degree order.  With Grams, each
    is the weighted Laplacian taken back by the congruence,
    L_p^{-*} lap L_p*."""
    return [
        (lap, np.eye(n)) if gram is None
        else (gram.lower_inverse.conj().T @ lap @ gram.lower.conj().T, gram.gram)
        for n, (_, lap, gram) in zip(C.dims, _blocks(C))
    ]


def _solve(C: GradedCochainComplex | TwistedComplex, kernel_tol: float | None, names):
    """The one solve loop of both torsions.  Per space p, in order: the
    weighted Laplacian with eigenvectors, then w_p* w_p for values only.
    Yields, per space, the Laplacian's decomposition, its kernel basis
    (named by ``names``, lifted back by L_p^{-*} to the complex's own
    coordinates, where it is G-orthonormal) and the pseudo-determinant of
    w_p* w_p."""
    for name, (up, lap, gram) in zip(names, _blocks(C)):
        dec = hermitian_spectrum(lap, kernel_tol=kernel_tol)
        basis = harmonic_basis_of(dec, label=name)
        if gram is not None:
            basis = HarmonicBasis(name, gram.lower_inverse.conj().T @ basis.vectors)
        yield dec, basis, pseudodet_of(hermitian_spectrum(up, kernel_tol=kernel_tol, vectors=False))


def _telescoped(ups) -> float:
    """sum_p (-1)^p (1/2) log pdet(w_p* w_p), summed in degree order."""
    total = 0.0
    for p, pd in enumerate(ups):
        total += (-1.0) ** p * 0.5 * pd.log_value
    return total


def reidemeister_torsion(
    C: GradedCochainComplex,
    *,
    kernel_tol: float | None = None,
) -> TorsionElement:
    """Degree-weighted torsion scalar with harmonic bases per degree."""
    names = [f"H^{p}" for p in range(len(C.dims))]
    log_scalar = 0.0
    notes, bases, kernel_dims, ups = [], [], [], []
    for p, (dec, basis, up) in enumerate(_solve(C, kernel_tol, names)):
        pd = pseudodet_of(dec)
        notes.extend(pd.warnings)
        log_scalar += (-1.0) ** (p + 1) * (p / 2.0) * pd.log_value
        bases.append(basis)
        kernel_dims.append(pd.kernel_dim)
        ups.append(up)

    # telescoped form over delta^+ delta only; must match the weighted sum
    alt = _telescoped(ups)
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
    """Parity-split torsion of a Z2-graded complex: the telescoped sum
    over its cycle of two spaces."""
    (even, even_basis, even_up), (odd, odd_basis, odd_up) = _solve(T, kernel_tol, ("even", "odd"))
    return TorsionElement(
        log_scalar=_telescoped((even_up, odd_up)),
        harmonic_bases=(even_basis, odd_basis),
        convention_tag=TWISTED_TAG,
        kernel_dims=(even.kernel_dimension, odd.kernel_dimension),
        warnings=even_up.warnings + odd_up.warnings,
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
