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
Grams), ``_blocks`` forms each Gram-weighted coboundary
w_p = L_{p+1}* d_p L_p^{-*} once per call, w_p* w_p, w_p w_p* and the
weighted Laplacian w_p* w_p + w_{p-1} w_{p-1}*.  They are Hermitian and congruent
to d_p^+ d_p and the Hodge Laplacian, by L_p*, so no Gram reaches the
eigensolver.  Without Grams, w_p is d_p itself.  A graded complex is a
chain of spaces (its degrees) and a Z2-graded one a cycle of two, and
one solve loop (``_solve``) serves both torsions: per space, the
Laplacian, then the smaller of w_p* w_p and w_p w_p* for eigenvalues
alone.  The two share their positive spectrum, so the pseudo-determinant
of w_p* w_p is read off either, and w_p w_p* is the down term of the
next space's Laplacian, formed anyway; a tie keeps w_p* w_p, as on the
square parity maps of every circle bundle.  The graded torsion
solves its Laplacians of degree p >= 1 with eigenvectors, since its
weighted sum reads their eigenvalues and ``eigh`` gives them more
accurately, and keeps only their kernel columns.  Delta_0 has weight 0
in that sum, so it is solved for values only, and H^0 is formed when
the bases are first read, by one more solve of the Delta_0 it kept.  The
twisted torsion solves its Laplacians for values only and forms its
harmonic bases the same way, by one more solve per parity.  It also
keeps the positive spectra of its two w_p* w_p, which the duality
transport compares.  Kernel dimensions double as cohomology
dimensions (checked against rank-nullity in the test suite).

Each complex keeps the bipartite components of its maps
(``spectral._map_blocks``), or None for a map taken whole.  Without
Grams, w_p is d_p and its products are formed one component at a time.
A map taken whole from ``SPLIT_MIN_ORDER`` up whose nonzeros are
integers of modulus at most 2^20 (every simplicial coboundary) has its
two squares summed from the pairs of nonzeros in each row and in each
column instead: within 8192 rows and columns every sum is an integer
below 2^53, so the result has the bits of the dense product.  The
underflow guard on a square reads its diagonal, which holds its
largest modulus.  The rank-nullity dimensions stay independent of the
eigensolver.  A real
map whose every row is zero or one +1 and one -1 (the delta_0 of every
complex without a local system, the covering graph of a permutation
local system) is an oriented incidence map, ranked exactly by
union-find as its columns less its connected components.  Every other
map is ranked by singular values of the map itself, one SVD per
component under the whole matrix's ``matrix_rank`` cut.  The only piece
they share with the solves is that exact partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

from .chain_models import GradedCochainComplex, TwistedComplex
from .errors import ValidationError
from .spectral import (
    SPLIT_MIN_ORDER,
    HarmonicBasis,
    _labels,
    _mask_edges,
    _pseudodet,
    _refuse_imprecise,
    hermitian_spectrum,
    pseudodet_of,
)

__all__ = [
    "TorsionElement",
    "reidemeister_torsion",
    "twisted_torsion",
    "cohomology_dimensions",
    "twisted_cohomology_dimensions",
]

REIDEMEISTER_TAG = "p-weighted-v1"
TWISTED_TAG = "parity-split-v1"
_CONVENTION_CHECK_TOL = 1e-10
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
_LOG_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True, eq=False)
class TorsionElement:
    """Torsion scalar in log form, plus the harmonic data that frames it.

    ``kernel_dims`` are the Laplacian kernel dimensions, one entry per
    degree (graded case) or per parity (twisted case); they equal the
    corresponding cohomology dimensions.  ``warnings`` collects spectral
    gap complaints and convention cross-check failures.
    ``form_bases`` is a zero-argument function that forms the harmonic
    bases, one per degree or parity; ``harmonic_bases`` runs it on first
    read and keeps its value.  ``square_spectra`` holds, for a twisted
    element, the positive eigenvalues of w* w per parity that the torsion
    solved, read off the smaller of w* w and w w*, which share them.
    """

    log_scalar: float
    form_bases: Callable[[], tuple[HarmonicBasis, ...]] = field(repr=False)
    convention_tag: str
    kernel_dims: tuple[int, ...]
    warnings: tuple[str, ...] = ()
    square_spectra: tuple[np.ndarray, ...] = field(default=(), repr=False)

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

    @cached_property
    def harmonic_bases(self) -> tuple[HarmonicBasis, ...]:
        return self.form_bases()

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
    would enlarge the kernel; overflow to inf is refused by the solver.
    The square is positive semidefinite, so its largest diagonal modulus
    is its largest entry modulus (|a_ij|^2 <= a_ii a_jj): the guard reads
    n entries, not n^2.  An empty op (the graded top map) is tested
    first, and ``op.any()`` runs only on an underflowed square."""
    if op.size and float(np.abs(square.diagonal()).max()) < _TINY and op.any():
        raise ValidationError(
            f"{what}: the Gram-weighted square of a nonzero coboundary "
            "underflowed float64"
        )
    return square


def _spaces(C: GradedCochainComplex | TwistedComplex) -> tuple:
    """(dims, maps, grams, labels, cyclic, blocks): maps[p] leaves space p
    for space p + 1 and, when cyclic, maps[-1] enters space 0.  The
    spaces are the degrees or the parities; grams[p] is the GramFactor
    record of space p, or None for the identity Gram, and grams[p + 1]
    that of the target of maps[p] (None past a graded top degree).
    blocks[p] are the bipartite components of maps[p] that the complex
    keeps, or None where the map is taken whole."""
    if isinstance(C, TwistedComplex):
        labels = ("d_even (even parity)", "d_odd (odd parity)")
        grams = C._gram_factors or (None, None)
        maps = (C.d_even, C.d_odd)
        return (C.even_dim, C.odd_dim), maps, grams + grams[:1], labels, True, C._components
    n = len(C.dims)
    labels = tuple(f"degree {p}" for p in range(n))
    grams = (C._gram_factors or (None,) * n) + (None,)
    # the zero-row map out of the top degree is taken whole
    maps = [C.delta(p) for p in range(n)]
    return C.dims, maps, grams, labels, False, C._components + (None,)


def _square(x: np.ndarray, blocks, *, inner: bool) -> np.ndarray:
    """x* x when ``inner``, else x x*.  With ``blocks``, the bipartite
    components of x, it is formed one component at a time: x* x is the
    direct sum of the blocks' products on their columns, x x* on their
    rows, up to a permutation, and zero elsewhere.  None forms the whole
    product."""
    if blocks is None:
        return x.conj().T @ x if inner else x @ x.conj().T
    out = np.zeros((x.shape[1 if inner else 0],) * 2, dtype=x.dtype)
    for rows, cols in blocks:
        b = x[np.ix_(rows, cols)]
        if inner:
            out[np.ix_(cols, cols)] = b.conj().T @ b
        else:
            out[np.ix_(rows, rows)] = b @ b.conj().T
    return out


# An integer map with entries of modulus at most 2^20 and at most 8192
# rows and columns has integer squares whose every partial sum is at most
# 8192 * 2^40 = 2^53, so float64 sums them exactly, in any order.
_EXACT_ENTRY = 2**20
_EXACT_TERMS = 2**53 // _EXACT_ENTRY**2


def _integer_nonzeros(x: np.ndarray):
    """(rows, cols, values) of x's nonzeros in row-major order, when x is
    real, has at most ``_EXACT_TERMS`` rows and columns, and each nonzero
    is an integer of modulus at most ``_EXACT_ENTRY``; else None."""
    if x.dtype.kind != "f" or max(x.shape) > _EXACT_TERMS:
        return None
    flat = np.flatnonzero(x != 0)
    values = x.ravel()[flat]
    if not np.abs(values).max(initial=0.0) <= _EXACT_ENTRY or (values != np.rint(values)).any():
        return None
    rows, cols = np.divmod(flat, x.shape[1])
    return rows, cols, values


def _pair_sums(group: np.ndarray, index: np.ndarray, values: np.ndarray, size: int):
    """The size x size matrix whose (i, j) entry sums v_a v_b over the
    pairs of nonzeros a, b that share a group, with index i and j; the
    nonzeros come sorted by group.  For groups the rows of x and indices
    its columns this is x* x, for groups its columns and indices its rows
    x x*.  Exact for the maps ``_integer_nonzeros`` passes, so it has the
    bits of the dense product, +0.0 where that sums to zero.  None when
    the pairs outnumber the entries, where the dense product costs less
    and keeps no pair list."""
    if not group.size:
        return np.zeros((size, size))
    counts = np.bincount(group)
    if int(counts @ counts) > size * size:
        return None
    held = counts[group]  # the nonzeros in each nonzero's group
    first = np.cumsum(counts) - counts
    left = np.repeat(np.arange(group.size), held)
    offset = np.arange(left.size) - np.repeat(np.cumsum(held) - held, held)
    right = first[group[left]] + offset
    return np.bincount(
        index[left] * size + index[right],
        weights=values[left] * values[right],
        minlength=size * size,
    ).reshape(size, size)


def _squares(x: np.ndarray, blocks, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x* x, x x*).  When ``exact`` allows it (a map without Grams taken
    whole from ``SPLIT_MIN_ORDER`` up) and x passes ``_integer_nonzeros``,
    each square is summed from the pairs of nonzeros in a row or in a
    column (``_pair_sums``); every other square is ``_square``'s."""
    found = _integer_nonzeros(x) if exact else None
    if found is None:
        return _square(x, blocks, inner=True), _square(x, blocks, inner=False)
    rows, cols, values = found
    m, n = x.shape
    by_col = np.argsort(cols, kind="stable")
    inner = _pair_sums(rows, cols, values, n)
    outer = _pair_sums(cols[by_col], rows[by_col], values[by_col], m)
    return (
        _square(x, None, inner=True) if inner is None else inner,
        _square(x, None, inner=False) if outer is None else outer,
    )


def _smaller(up: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """w* w, or w w* where that is of lower order."""
    return outer if len(outer) < len(up) else up


def _blocks(C: GradedCochainComplex | TwistedComplex) -> list[tuple]:
    """Per space p: (the smaller of w_p* w_p and w_p w_p*, the weighted
    Laplacian w_p* w_p + w_{p-1} w_{p-1}*, the GramFactor or None), where
    w_p = L_{p+1}* d_p L_p^{-*} is the Gram-weighted coboundary, each side
    weighted only when its space has a record (d_p itself without Grams).
    The two squares share their positive spectrum, and w_p w_p* is the
    down term of the next space, so the smaller square costs no product;
    a tie keeps w_p* w_p.  Without Grams each product is formed one
    bipartite component of d_p at a time (``_square``), and a map taken
    whole from its integer nonzeros where it can be (``_squares``); with
    Grams, whole.  Each product is built, and refused if it underflowed,
    once; one that overflowed is refused by the solver."""
    _, maps, grams, labels, cyclic, blocks = _spaces(C)
    if grams[0] is not None:
        blocks = (None,) * len(maps)
    w, out = [], []
    with np.errstate(over="ignore"):
        for p, d in enumerate(maps):
            if grams[p + 1] is not None:
                d = grams[p + 1].lower.conj().T @ d
            if grams[p] is not None:
                d = d @ grams[p].lower_inverse.conj().T
            w.append(d)

        def squares(p: int) -> tuple[np.ndarray, np.ndarray]:
            exact = grams[0] is None and blocks[p] is None and max(w[p].shape) >= SPLIT_MIN_ORDER
            up, outer = _squares(w[p], blocks[p], exact)
            return (
                _unless_underflowed(up, maps[p], labels[p]),
                _unless_underflowed(outer, maps[p], labels[p]),
            )

        # the down term of space 0: w_{-1} w_{-1}* on a cycle, none on a chain
        last = squares(len(w) - 1) if cyclic else None
        down = last[1] if cyclic else None
        for p, x in enumerate(w):
            up, outer = last if cyclic and p == len(w) - 1 else squares(p)
            lap = up
            if p > 0 or cyclic:
                if len(x):
                    lap = up + down
                else:
                    # w* w of a map with no rows (the graded top map) is
                    # exactly zero; adding 0.0 in place gives the bytes of
                    # up + down, where -0.0 reads +0.0
                    down += 0.0
                    lap = down
            out.append((_smaller(up, outer), lap, grams[p]))
            down = outer
    return out


def _solve(
    C: GradedCochainComplex | TwistedComplex, kernel_tol: float | None, vectors: Sequence[bool]
):
    """The one solve loop of both torsions.  Per space p, in order: the
    weighted Laplacian, with eigenvectors only where ``vectors[p]``, then
    the smaller of w_p* w_p and w_p w_p* for values only; each cut that
    cannot be trusted is refused, once.  Yields, per space, the
    Laplacian's decomposition, the pseudo-determinant of w_p* w_p and its
    positive eigenvalues, both read off that smaller square, and the
    (weighted Laplacian, GramFactor or None) pair that a kernel basis is
    read from."""
    for (square, lap, gram), eager in zip(_blocks(C), vectors):
        dec = hermitian_spectrum(lap, kernel_tol=kernel_tol, vectors=eager)
        _refuse_imprecise(dec)
        values = hermitian_spectrum(square, kernel_tol=kernel_tol, vectors=False)
        yield dec, pseudodet_of(values), values.positive_eigenvalues, (lap, gram)


def _lifted(name: str, vectors: np.ndarray, gram) -> HarmonicBasis:
    """A kernel basis of a weighted Laplacian, taken back by L_p^{-*} to
    the complex's own coordinates, where it is G-orthonormal.  Without a
    Gram it is a copy, so the basis keeps no n x n eigenvector matrix
    alive."""
    if gram is None:
        return HarmonicBasis(name, vectors.copy())
    return HarmonicBasis(name, gram.lower_inverse.conj().T @ vectors)


def _kernel_bases(names, kernel_dims, kept) -> tuple[HarmonicBasis, ...]:
    """Per space, the eigenvectors of the kernel_dims[p] smallest
    eigenvalues of one solve of its weighted Laplacian, lifted.  The cut
    is the torsion's own, so each basis has its kernel's dimension."""
    return tuple(
        _lifted(name, hermitian_spectrum(lap).eigenvectors[:, :k], gram)
        for name, k, (lap, gram) in zip(names, kernel_dims, kept)
    )


def _graded_bases(kept, k: int, higher: tuple[HarmonicBasis, ...]) -> tuple[HarmonicBasis, ...]:
    """H^0 from one solve of the kept Delta_0, cut at its kernel
    dimension k, then the bases of the higher degrees."""
    return _kernel_bases(("H^0",), (k,), (kept,)) + higher


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
    """Degree-weighted torsion scalar with harmonic bases per degree.

    Delta_0 has weight 0 in the sum, so it is solved for values only and
    H^0 is formed when the bases are first read; the other degrees are
    solved with eigenvectors and keep only their kernel columns."""
    log_scalar = 0.0
    notes, bases, kernel_dims, ups = [], [], [], []
    eager = [p > 0 for p in range(len(C.dims))]
    for p, (dec, up, _, kept) in enumerate(_solve(C, kernel_tol, eager)):
        pd = _pseudodet(dec)
        notes.extend(pd.warnings)
        log_scalar += (-1.0) ** (p + 1) * (p / 2.0) * pd.log_value
        if p == 0:
            kept0 = kept
        else:
            bases.append(_lifted(f"H^{p}", dec.kernel_vectors, kept[1]))
        kernel_dims.append(dec.kernel_dimension)
        ups.append(up)

    # telescoped form over delta^+ delta only; must match the weighted sum
    alt = _telescoped(ups)
    if abs(log_scalar - alt) > _CONVENTION_CHECK_TOL * max(1.0, abs(log_scalar)):
        notes.append(
            f"telescoping cross-check drifted: weighted {log_scalar!r} vs telescoped {alt!r}"
        )

    return TorsionElement(
        log_scalar=log_scalar,
        form_bases=partial(_graded_bases, kept0, kernel_dims[0], tuple(bases)),
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
    over its cycle of two spaces.  Its Laplacians are solved for values
    only; the harmonic bases are solved for when first read."""
    (even, even_up, even_spectrum, even_lap), (odd, odd_up, odd_spectrum, odd_lap) = _solve(
        T, kernel_tol, (False, False)
    )
    kernel_dims = (even.kernel_dimension, odd.kernel_dimension)
    return TorsionElement(
        log_scalar=_telescoped((even_up, odd_up)),
        form_bases=partial(_kernel_bases, ("even", "odd"), kernel_dims, (even_lap, odd_lap)),
        convention_tag=TWISTED_TAG,
        kernel_dims=kernel_dims,
        warnings=even_up.warnings + odd_up.warnings,
        square_spectra=(even_spectrum, odd_spectrum),
    )


def _incidence_rank(d: np.ndarray) -> int | None:
    """The rank of a real map whose every row is zero or one +1 and one
    -1, or None for any other map.  Such a map is the incidence matrix of
    an oriented multigraph on its columns, and over any field its rank is
    the number of columns less the number of connected components
    (Kirchhoff); the components are those of its bipartite graph
    (``spectral._labels``) that hold a column."""
    if d.dtype.kind != "f":
        return None
    mask = d != 0
    held = np.count_nonzero(mask, axis=1)
    if held.max(initial=0) > 2:
        return None
    plus, minus = (np.count_nonzero(d == v, axis=1) for v in (1, -1))
    if not ((plus == minus) & (plus + minus == held)).all():
        return None
    m, n = d.shape
    roots = np.zeros(m + n, dtype=bool)
    roots[_labels(*_mask_edges(mask, m), bipartite=True)[m:]] = True
    return n - int(np.count_nonzero(roots))


def _rank(d: np.ndarray, blocks) -> int:
    """``np.linalg.matrix_rank(d)``, as a Python int.

    An oriented incidence map (``_incidence_rank``) is ranked exactly by
    union-find.  That is the rank ``matrix_rank`` finds within
    ``MAX_MODEL_SIZE`` (8192 cells): the smallest nonzero singular value
    of a component on v vertices is sqrt(lambda_2) of its graph
    Laplacian, at least 2/v >= 2.4e-4 by Mohar's
    lambda_2 >= 4/(v * diam), while the cut below is at most
    sqrt(2 * max degree) * 8192 * eps <= 128 * 8192 * eps ~ 2.3e-10.

    Every other map (complex, or with any other row: a scaled row, a
    flux term, a transport that is not a permutation) is ranked by its
    singular values above max sigma * max(M, N) * eps.  With ``blocks``,
    the bipartite components of d, the singular values are those of the
    components, one SVD each, and the whole-matrix cut applies to all of
    them together; None runs one SVD of d."""
    if not d.size:
        return 0
    exact = _incidence_rank(d)
    if exact is not None:
        return exact
    parts = [d] if blocks is None else [d[np.ix_(rows, cols)] for rows, cols in blocks]
    s = np.concatenate([np.zeros(0)] + [np.linalg.svd(x, compute_uv=False) for x in parts])
    return int(np.count_nonzero(s > s.max(initial=0.0) * (max(d.shape) * _EPS)))


def _rank_nullity(C: GradedCochainComplex | TwistedComplex) -> tuple[int, ...]:
    """dim - rank of the map out - rank of the map in, per space, as
    Python ints.

    Independent of the spectral route: the ranks come from the
    coboundaries themselves, not from any eigensolve or Laplacian.  An
    oriented incidence map is ranked exactly by union-find; any other
    map by its singular values.  The one piece shared with the solves is
    the exact partition of each map into its bipartite components, which
    the complex keeps; a split map is ranked from its components'
    singular values under the whole matrix's cut, so every decision is
    the one ``matrix_rank`` makes (``_rank``)."""
    dims, maps, _, _, cyclic, blocks = _spaces(C)
    ranks = [_rank(d, b) for d, b in zip(maps, blocks)]
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
