"""Hermitian eigensolves and log-domain pseudo-determinants.

No Gram reaches the eigensolver.  ``torsion_engine`` solves every
operator in coordinates orthonormal for the Grams, where it is
Hermitian; its one solve loop is the only place that weights by them.
``_gram_factor`` checks a Gram and returns a ``GramFactor`` holding G,
its Cholesky factor L (G = L L*) and, formed on first use, L^{-1}.  The
Cholesky factor of a block-diagonal Gram is the direct sum of the
factors of its blocks, so ``_direct_sum`` assembles the record of such a
Gram from checked block records without checking or factoring again.
The complexes of ``chain_models`` keep the records of their Grams.
Kernel membership is decided by a relative threshold, 1e-9 times the
largest eigenvalue magnitude (or 1 if the spectrum vanishes); a cut with
retained/discarded ratio under 1e3 is recorded as a warning on the
result rather than failing.

The arithmetic follows the input dtype: a real A gives a real symmetric
solve in float64, and a complex A a Hermitian one in complex128, except
that a diagonal block of a split complex A whose imaginary part is
exactly zero is solved in float64.  Callers that read only eigenvalues
pass ``vectors=False``, which runs ``eigvalsh`` and leaves the
decomposition without eigenvectors.  The scans before a solve form no
n x n temporary: a real A's scale is its max and min, and its Hermitian
residual the max of A - A^T, formed ``_SLICE_ROWS`` rows at a time, as
are a complex A's moduli.  The default cut is read off the two ends of
the ascending spectrum.

A solve splits on the exact zero pattern of A: the indices joined
through its nonzero entries, on either side of the diagonal, form a
diagonal block up to a permutation, and each block is solved on its
own.  A 1 x 1 block is read off the diagonal, a larger one goes to
LAPACK, and the block spectra merge into one ascending spectrum.  What
reads a spectrum stays global: the kernel cut, the roundoff refusal
(``_refuse_imprecise``) and the gap warning all see the whole order-n
spectrum, so a tolerance means what it meant for the whole matrix.  A
matrix with a block of more than half its order (one block included),
or of order below ``SPLIT_MIN_ORDER``, goes to LAPACK whole.

A coboundary splits by the same rule on the bipartite graph of its
nonzeros, rows on one side and columns on the other (``_map_blocks``):
each connected component is a block of the map up to permutations of
its rows and of its columns.  The complexes of ``chain_models`` find a
map's components once and keep them; its square-zero residuals, and in
``torsion_engine`` its rank and its products w* w and w w*, then run
one dense call per component (a whole integer map's products are summed
from its nonzeros instead).  A split map's torsion square is the direct
sum of each component's smaller product, laid out block after block and
solved by the same rule: the odd square of the twisted
``simplex_boundary(8)``, 36 + 36 + 126, keeps a block over half its
order and goes to LAPACK whole.  One union-find (``_labels``) serves
both searches and counts the components of a simplicial complex's edge
table, its b_0 (``chain_models._betti_zero``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    GramNotPositive,
    NegativeEigenvalue,
    NotHermitian,
    ValidationError,
)

__all__ = [
    "SpectralDecomposition",
    "PseudoDeterminant",
    "HarmonicBasis",
    "hermitian_spectrum",
    "pseudodet_of",
    "default_kernel_tol",
]

KERNEL_TOL_FACTOR = 1e-9
GAP_RATIO = 1e3
HERMITIAN_TOL = 1e-10
# Below this order a matrix is solved whole: there one dense eigensolve
# costs no more than finding the blocks and merging their spectra.
SPLIT_MIN_ORDER = 32
_EPS = float(np.finfo(np.float64).eps)


def default_kernel_tol(eigenvalues: np.ndarray) -> float:
    """Relative kernel threshold: 1e-9 times the spectral radius, or 1e-9
    outright when the spectrum is identically zero."""
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return KERNEL_TOL_FACTOR * (scale or 1.0)


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues ascending, eigenvectors orthonormal in columns.

    ``eigenvectors`` is None for a values-only solve.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    kernel_tol: float

    def __post_init__(self) -> None:
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        ev.setflags(write=False)
        object.__setattr__(self, "eigenvalues", ev)
        if self.eigenvectors is not None:
            vec = np.asarray(self.eigenvectors)
            vec.setflags(write=False)
            object.__setattr__(self, "eigenvectors", vec)

    @cached_property
    def kernel_dimension(self) -> int:
        """Eigenvalues at or below the cut, which lead the ascending spectrum."""
        return int(np.searchsorted(self.eigenvalues, self.kernel_tol, side="right"))

    @property
    def positive_eigenvalues(self) -> np.ndarray:
        return self.eigenvalues[self.kernel_dimension:]


@dataclass(frozen=True, eq=False)
class PseudoDeterminant:
    """Product of the eigenvalues above the kernel cut, held in log form."""

    log_value: float
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class HarmonicBasis:
    """Basis of a Laplacian kernel, orthonormal for the Gram of its space."""

    label: str
    vectors: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vectors)
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(a)
    m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def _finite(top: float, name: str) -> float:
    if not math.isfinite(top):
        raise ValidationError(f"{name} has a non-finite entry; its data overflowed float64")
    return top


# The scans of a complex operator's moduli, and of any operator's
# A - A*, take this many rows at a time, so no n x n temporary is formed.
# They reduce by np.maximum/np.minimum.reduce, without the Python wrapper
# of ndarray.max, a visible share of a scan on a bundle's tiny operators.
_SLICE_ROWS = 64


def _sliced_max(n: int, part) -> float:
    """The largest entry of part(s) over the slices s of ``_SLICE_ROWS``
    of n rows.  NaN propagates."""
    top = -math.inf
    for i in range(0, n, _SLICE_ROWS):
        m = float(np.maximum.reduce(part(slice(i, i + _SLICE_ROWS)), axis=None))
        if m != m:
            return m
        top = max(top, m)
    return top


def _largest(a: np.ndarray, name: str = "operator") -> float:
    """Largest entry modulus: a size that, unlike the Frobenius norm, does
    not overflow before the entries do.  Refuses non-finite entries.  A
    real a's is read from its max and min (NaN propagates through both),
    a complex a's moduli a slice of rows at a time."""
    if a.dtype.kind == "c":
        return _finite(_sliced_max(len(a), lambda s: np.abs(a[s])), name)
    top, bottom = np.maximum.reduce(a, axis=None), np.minimum.reduce(a, axis=None)
    return _finite(max(float(top), -float(bottom)), name)


def _skew(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """rows - cols*, with cols* copied contiguous and rows subtracted in
    place: a slice of rows of A - A*, given the same slice of A's columns.
    A complex residual is returned as its moduli."""
    r = np.conjugate(cols.T, order="C")
    np.subtract(rows, r, out=r)
    return np.abs(r) if r.dtype.kind == "c" else r


def _hermitian_residual(A: np.ndarray) -> float:
    """``_largest(A - A*)``, a slice of rows at a time.  A real A - A^T is
    antisymmetric to the bit, since a - b rounds to -(b - a), so its
    largest modulus is its max, with no moduli formed."""
    return _finite(_sliced_max(len(A), lambda s: _skew(A[s], A[:, s])), "operator")


@dataclass(frozen=True, eq=False)
class GramFactor:
    """A checked Gram with its Cholesky factor, G = L L*.

    ``_gram_factor`` makes one from a Gram it has checked, and
    ``_direct_sum`` assembles one from known factors, so a factor never
    travels without its Gram.  The identity Gram has no record: where a
    record may stand, None means the identity.
    ``lower_inverse`` is formed on first use.
    """

    gram: np.ndarray
    lower: np.ndarray

    @cached_property
    def lower_inverse(self) -> np.ndarray:
        return np.linalg.inv(self.lower)


def _gram_factor(G: np.ndarray, n: int, name: str = "gram") -> GramFactor:
    """Check an n x n Hermitian positive definite Gram and factor it,
    G = L L*: the one check of every Gram the package accepts.

    Raises GramNotPositive, naming ``name``, on a wrong shape, when the
    largest entry of G - G* exceeds 1e-12 times that of G (or 1), or when
    Cholesky fails; ValidationError on a non-finite entry.
    """
    if G.shape != (n, n):
        raise GramNotPositive(f"{name} has shape {G.shape}, expected {(n, n)}")
    if not n:
        return GramFactor(G, G)
    scale = _largest(G, name)
    if _largest(G - G.conj().T, name) > 1e-12 * max(1.0, scale):
        raise GramNotPositive(f"{name} is not Hermitian")
    try:
        return GramFactor(G, np.linalg.cholesky(G))
    except np.linalg.LinAlgError:
        raise GramNotPositive(f"{name} is not positive definite") from None


def _direct_sum(blocks: Sequence[GramFactor]) -> GramFactor:
    """Record of the block-diagonal Gram with the given diagonal blocks, in
    order.  Its Cholesky factor is the block-diagonal of the blocks'
    factors, so nothing is checked or factored again."""
    n = sum(f.gram.shape[0] for f in blocks)
    gram = np.zeros((n, n), dtype=np.result_type(np.float64, *(f.gram for f in blocks)))
    lower = np.zeros((n, n), dtype=np.result_type(np.float64, *(f.lower for f in blocks)))
    i = 0
    for f in blocks:
        k = i + f.gram.shape[0]
        gram[i:k, i:k], lower[i:k, i:k] = f.gram, f.lower
        i = k
    gram.setflags(write=False)
    lower.setflags(write=False)
    return GramFactor(gram, lower)


def hermitian_spectrum(
    A: np.ndarray,
    *,
    kernel_tol: float | None = None,
    vectors: bool = True,
) -> SpectralDecomposition:
    """Solve A v = lambda v for a Hermitian A, with V*V = I.

    A real A is solved in float64 and a complex one in complex128, except
    that a diagonal block with zero imaginary part of a split complex A
    is solved in float64.  With ``vectors=False`` only the eigenvalues
    are computed and the result's ``eigenvectors`` is None.  An exactly
    zero A is answered without an eigensolve, with the same bits.

    From order ``SPLIT_MIN_ORDER`` up, A is solved one diagonal block of
    its exact zero pattern at a time (``_blocks_of``) when no block is
    more than half its order; its eigenvectors are then block-diagonal
    up to the same permutation.  Any other A, one block included, gets
    the bits of a whole ``eigh`` or ``eigvalsh``.  The cut
    (``kernel_tol``, by default from the whole spectrum), the roundoff
    refusal and the gap warning read the merged order-n spectrum.

    Raises NotHermitian when the largest entry of A - A* exceeds 1e-10
    times that of A (or 1), and ValidationError when A has a non-finite
    entry.
    """
    A = _as_square(A, "operator")
    n = A.shape[0]
    scale = _largest(A) if n else 0.0  # also refuses a non-finite A
    # an exactly zero A (or an empty one) has the zero spectrum and the
    # identity as eigenbasis, bit for bit what LAPACK returns for it
    if scale == 0.0:
        w = np.zeros(n)
        return SpectralDecomposition(
            eigenvalues=w,
            eigenvectors=np.eye(n, dtype=A.dtype) if vectors else None,
            # default_kernel_tol of the zero spectrum
            kernel_tol=kernel_tol if kernel_tol is not None else KERNEL_TOL_FACTOR,
        )
    resid = _hermitian_residual(A)
    if resid > HERMITIAN_TOL * max(1.0, scale):
        raise NotHermitian(f"operator is not Hermitian (residual {resid:.3e})")

    # with no block over n / 2 the blocks hold at most a quarter of the
    # n^3 work; a larger block keeps more, and at order 63 splitting real
    # blocks [28, 35] cost 1.1-1.3x the whole solve
    if n >= SPLIT_MIN_ORDER and 2 * np.bincount(label := _blocks_of(A)).max() <= n:
        w, V = _solve_blocks(A, label, vectors)
    elif vectors:
        w, V = np.linalg.eigh(A)
    else:
        w, V = np.linalg.eigvalsh(A), None

    if kernel_tol is None:
        # default_kernel_tol(w): the ascending w has its largest modulus
        # at one of its ends, so no second reduction over it
        kernel_tol = KERNEL_TOL_FACTOR * (max(abs(float(w[0])), abs(float(w[-1]))) or 1.0)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=V, kernel_tol=kernel_tol)


def _labels(rows: np.ndarray, cols: np.ndarray, size: int, bipartite: bool = False) -> np.ndarray:
    """Label each of ``size`` nodes by the smallest node joined to it
    through the edges (rows[k], cols[k]); ``bipartite`` says that every
    row lies below every column, as in a map's bipartite graph.

    Union-find in whole-array rounds: every root is hooked to the
    smallest root across its edges, then pointer jumping points every
    node at its root.  Hooks only lower a label, so the smallest node of
    a component stays its root.  The search stops when every edge joins
    two nodes of one label, so every edge lies inside one component."""
    label = np.arange(size)
    a, b = rows, cols  # every node is its own root
    # a bipartite first round hooks columns onto rows, which stay roots,
    # so its trees are one deep already and need no jumps
    jumps = 0 if bipartite else size.bit_length()
    while not (a == b).all():
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        # a tree of size nodes is at most size - 1 deep; each jump halves that
        for _ in range(jumps):
            label = label[label]
        jumps = size.bit_length()
        a, b = label[rows], label[cols]
    return label


def _mask_edges(mask: np.ndarray, shift: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The edges (i, j + shift), one per nonzero mask[i, j], listed from
    the flat nonzeros (a tenth of a 2-D ``np.nonzero``'s cost on an
    order-600 coboundary), and the node count: with shift 0 a square
    mask's rows and columns are the same nodes, with shift m the m + n
    nodes of its bipartite graph."""
    m, n = mask.shape
    rows, cols = np.divmod(np.flatnonzero(mask), n)
    cols += shift
    return rows, cols, max(m, n + shift)


def _nonzero(a: np.ndarray) -> np.ndarray:
    """The mask a != 0.  A complex a is compared as its float64 pairs,
    and each pair of flags read as one 2-byte integer, nonzero when
    either part is: a quarter of the cost of a complex compare."""
    if a.dtype.kind != "c":
        return a != 0
    return (np.ascontiguousarray(a).view(np.float64) != 0).view(np.uint16) != 0


def _blocks_of(A: np.ndarray) -> np.ndarray:
    """Label each index of A by the smallest index joined to it through
    A's exact nonzeros, counted on either side of the diagonal: indices
    with one label span a diagonal block of A up to a permutation."""
    return _labels(*_mask_edges(_nonzero(A), 0))


def _map_blocks(d: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...] | None:
    """The (rows, columns) of each bipartite component of a map's exact
    nonzeros, ascending, for the components that hold a nonzero; d is
    their direct sum up to permutations of its rows and of its columns,
    with zero rows and columns besides.  None where d is taken whole: by
    ``hermitian_spectrum``'s rule, when its larger side is below
    ``SPLIT_MIN_ORDER`` or a component spans more than half its rows or
    half its columns (one component included)."""
    m, n = d.shape
    if max(m, n) < SPLIT_MIN_ORDER:
        return None
    label = _labels(*_mask_edges(_nonzero(d), m), bipartite=True)
    # the rows and the columns of each component, counted at its root
    rows, cols = (np.bincount(side, minlength=m + n) for side in (label[:m], label[m:]))
    if 2 * rows.max() > m or 2 * cols.max() > n:
        return None
    held = np.flatnonzero(((rows > 0) & (cols > 0))[label])
    order = held[np.argsort(label[held], kind="stable")]
    groups = np.split(order, np.flatnonzero(np.diff(label[order])) + 1) if order.size else []
    return tuple((g[g < m], g[g >= m] - m) for g in groups)


def _solve_blocks(A: np.ndarray, label: np.ndarray, vectors: bool):
    """Eigenvalues ascending, and eigenvectors when ``vectors``, of A
    solved one block of ``label`` at a time: a 1 x 1 block is read off
    the diagonal (its real part, as LAPACK reads a Hermitian diagonal),
    a larger one goes to LAPACK, and its eigenvectors fill its own rows."""
    n = A.shape[0]
    sizes = np.bincount(label)  # the size of each block, at its root
    lone = np.flatnonzero(sizes[label] == 1)
    k = lone.size
    w = np.empty(n)
    w[:k] = A[lone, lone].real
    V = None
    if vectors:
        V = np.zeros((n, n), dtype=A.dtype)
        V[lone, np.arange(k)] = 1.0
    for root in np.flatnonzero(sizes > 1):
        idx = np.flatnonzero(label == root)
        at = slice(k, k + idx.size)
        k += idx.size
        block = A.take(idx, 0).take(idx, 1)
        if block.dtype.kind == "c" and not block.imag.any():
            block = np.ascontiguousarray(block.real)
        if vectors:
            w[at], V[idx, at] = np.linalg.eigh(block)
        else:
            w[at] = np.linalg.eigvalsh(block)
    rank = np.argsort(w, kind="stable")
    return w[rank], (V[:, rank] if vectors else None)


def _gap_warnings(ev: np.ndarray, k: int) -> tuple[str, ...]:
    """Warn when the smallest retained eigenvalue, ev[k], is within
    ``GAP_RATIO`` of the largest discarded magnitude, which the ascending
    ev[:k] holds at one of its ends."""
    if k == 0 or k == ev.size:
        return ()
    floor = max(abs(float(ev[0])), abs(float(ev[k - 1])))
    if floor == 0.0:
        return ()
    retained = float(ev[k])
    ratio = retained / floor
    if ratio >= GAP_RATIO:
        return ()
    return (
        f"kernel cut poorly separated: retained {retained:.3e} over "
        f"discarded {floor:.3e} gives ratio {ratio:.1f} < {GAP_RATIO:.0e}",
    )


def _refuse_imprecise(decomposition: SpectralDecomposition) -> None:
    """Raise NegativeEigenvalue when the kernel cut cannot be trusted.

    Every solved operator is positive semidefinite, and the solve's
    roundoff is n eps times the largest eigenvalue magnitude.  An
    eigenvalue below -kernel_tol and beyond that roundoff means the
    operator is not psd.  One within it that the cut keeps as nonzero,
    |lambda| > kernel_tol, whatever its sign, is the roundoff of a zero
    eigenvalue, and the message names the tolerance as the cause.  The
    default cut, 1e-9 times the largest magnitude, lies above the
    roundoff of every model within ``MAX_MODEL_SIZE``.
    """
    ev, tol = decomposition.eigenvalues, decomposition.kernel_tol
    if not ev.size:
        return
    low = float(ev[0])
    roundoff = ev.size * _EPS * max(-low, float(ev[-1]))  # ev is ascending
    if low < -tol and -low > roundoff:
        raise NegativeEigenvalue(f"eigenvalue {low:.6e} below -{tol:.3e}; operator is not psd")
    if tol >= roundoff:
        return
    magnitude = np.abs(ev)
    noise = ev[(magnitude > tol) & (magnitude <= roundoff)]
    if noise.size:
        raise NegativeEigenvalue(
            f"eigenvalue {float(noise[0]):.6e} is roundoff of a positive semidefinite operator "
            f"(n eps max|eigenvalue| = {roundoff:.3e}); kernel tolerance {tol:.3e} "
            "is below the precision of the solve"
        )


def pseudodet_of(decomposition: SpectralDecomposition) -> PseudoDeterminant:
    """Log-domain product of the eigenvalues above the kernel cut.

    The empty product is 1 (log 0).  A negative eigenvalue beyond
    roundoff, or roundoff kept above the cut, raises NegativeEigenvalue
    (``_refuse_imprecise``); a weak separation at the cut is recorded on
    the result's warnings.
    """
    _refuse_imprecise(decomposition)
    positive = decomposition.positive_eigenvalues
    logdet = float(np.sum(np.log(positive))) if positive.size else 0.0
    return PseudoDeterminant(
        log_value=logdet,
        warnings=_gap_warnings(decomposition.eigenvalues, decomposition.kernel_dimension),
    )
