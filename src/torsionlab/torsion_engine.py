"""Torsion scalars of graded and Z2-graded complexes.

Both torsions are one sum over the Gram-weighted coboundaries w_p,

    log tau = sum_p (-1)^p * (1/2) * log pdet(w_p* w_p),

taken over a chain of spaces (the degrees of a graded complex) or over a
cycle of two (the parities of a Z2-graded one).  The nonzero spectrum of
the Laplacian Delta_p is that of w_p* w_p together with that of
w_{p-1} w_{p-1}* (Ray-Singer), so this is the telescoped form of the
degree-weighted sum_p (-1)^(p+1) * (p/2) * log pdet(Delta_p), whose tag
the graded torsion keeps.  Each kernel is read from the two maps that
meet its space: dim_p - r_p - r_{p-1}, where r_p, the rank of w_p,
counts the eigenvalues of its square above that square's own cut, so a
Laplacian whose two maps live on scales far apart is never cut as one.

This module is the one place that knows the Gram weighting.  With
G_p = L_p L_p* (the ``spectral.GramFactor`` records each complex made
when it checked its Grams), ``_blocks`` forms each
w_p = L_{p+1}* d_p L_p^{-*} once per call, w_p* w_p, w_p w_p* and the
weighted Laplacian w_p* w_p + w_{p-1} w_{p-1}*.  They are Hermitian and
congruent to d_p^+ d_p and the Hodge Laplacian, by L_p*, so no Gram
reaches the eigensolver.  Without Grams, w_p is d_p itself.  One solve
loop (``_solve``) serves both torsions: per space, the Laplacian for
eigenvalues only, whose cut is checked for roundoff and which is kept
for the harmonic bases, then one square of w_p.  With Grams that square
is w_p w_p*, which reads ill-conditioned Grams more accurately; without
them it is the smaller of the two, a tie keeping w_p* w_p, as on the
square parity maps of every circle bundle.  w_p w_p* is the down term
of the next space's Laplacian, formed anyway.  The graded torsion
solves its squares with eigenvectors, since ``eigh`` gives their
eigenvalues more accurately than ``eigvalsh`` on large cycles, and
reads only the eigenvalues; the twisted torsion solves them for values
only.  The harmonic bases of both are formed when first read, by one
more solve of each kept Laplacian, and the squares' positive spectra
are kept for the duality transport.  Kernel dimensions double as
cohomology dimensions (checked against rank-nullity in the test suite).

Each complex keeps the bipartite components of its maps
(``spectral._map_blocks``), or None for a map taken whole.  Without
Grams, w_p is d_p, and a map kept as components is handled one
component b = d_p[rows, cols] at a time (``_split_squares``).  b is
taken in its own dtype: float64 when its entries are real, even inside
a complex128 map.  b* b and b b* are formed once and added straight
into the one n x n Laplacian of each space they reach (``_laplacian``),
and the square solved is the direct sum of each component's smaller
product, a tie keeping b* b: on the twisted ``simplex_boundary(8)`` that
is order 45 + 84 + 84 (even) and 36 + 36 + 126 (odd) in place of 255.
A block of it that is real is solved in float64 (``spectral``), and a
map with no nonzero has an empty square.  A map taken whole (with
Grams, below ``SPLIT_MIN_ORDER``, or with a component over half) keeps
its n x n products and their bits.  One from ``SPLIT_MIN_ORDER`` up
whose nonzeros are integers of modulus at most 2^20 (every simplicial
coboundary) has its two squares summed from the pairs of nonzeros in
each row and in each column instead: within 8192 rows and columns every
sum is an integer below 2^53, so the result has the bits of the dense
product.  The underflow guard on a square reads its diagonal, which
holds its largest modulus.

The rank-nullity dimensions stay independent of the eigensolver.  The
untwisted complex of a simplicial complex K, recognised by its maps
being exactly K's signed incidence ((-1)^i at ``K.faces[p]``, real, no
other nonzero; a verdict the complex reaches once, when it is built),
is ranked on the relative complex (K, cl st v) of a vertex's closed
star, a cone and so acyclic: b_p(K) = b_p(K, cl st v) + [p = 0].  Its
relative delta_0 is never written: its rank is n_0 - (b_0(K) - 1), with
b_0(K) the components of K's edge table.  On a sphere that leaves one
cell and no map.  A flux twist of such a complex is ranked by degree
block: each delta_p that no flux block meets is a direct summand of its
folded map, ranked exactly from those Betti numbers, and only the
coupled part, the degrees the flux blocks join and the delta_p that
meet them, is decomposed, by one SVD under the whole map's cut
(``_folded_ranks``).  For flux-twisted maps this is the rank check that
stays independent of the solves.  Every other map (a relative delta_p
with p >= 1, and every map of a lens, a local system, a bundle complex
or a complex built by hand or copied) is ranked by singular values of
the map itself, one SVD per component under the whole matrix's
``matrix_rank`` cut.  The only piece they share with the solves is that
exact partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .chain_models import (
    _ALTERNATING,
    GradedCochainComplex,
    TwistedComplex,
    _betti_zero,
    _degree_rows,
)
from .errors import ValidationError
from .spectral import (
    SPLIT_MIN_ORDER,
    HarmonicBasis,
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
_TINY = np.finfo(np.float64).tiny
_EPS = np.finfo(np.float64).eps
_LOG_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True, eq=False)
class TorsionElement:
    """Torsion scalar in log form, plus the harmonic data that frames it.

    ``kernel_dims`` are the kernel dimensions, one entry per degree
    (graded case) or per parity (twisted case): the dimension less the
    ranks of the maps out of and into the space; they equal the
    corresponding cohomology dimensions.  ``warnings`` collects the
    spectral gap complaints of the maps' squares.  ``form_bases`` is a
    zero-argument function that forms the harmonic bases, one per degree
    or parity; ``harmonic_bases`` runs it on first read and keeps its
    value.  ``square_spectra`` holds, per degree or parity, the positive
    eigenvalues of w* w that the torsion solved, read off the square it
    solved (w* w or w w*, which share them; for a map kept as bipartite
    components, the direct sum of each component's smaller product, each
    block solved in float64 where it is real).
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


def _squares(x: np.ndarray, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(x* x, x x*) of a map taken whole.  When ``exact`` allows it (a map
    without Grams from ``SPLIT_MIN_ORDER`` up) and x passes
    ``_integer_nonzeros``, each square is summed from the pairs of
    nonzeros in a row or in a column (``_pair_sums``); every other square
    is the dense product."""
    found = _integer_nonzeros(x) if exact else None
    inner = outer = None
    if found is not None:
        rows, cols, values = found
        by_col = np.argsort(cols, kind="stable")
        inner = _pair_sums(rows, cols, values, x.shape[1])
        outer = _pair_sums(cols[by_col], rows[by_col], values[by_col], x.shape[0])
    return (
        x.conj().T @ x if inner is None else inner,
        x @ x.conj().T if outer is None else outer,
    )


def _dtype_of(arrays: list[np.ndarray]):
    """complex128 when one of the arrays is complex, else float64."""
    return np.complex128 if any(a.dtype.kind == "c" for a in arrays) else np.float64


def _diagonal_sum(squares: list[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix of the given squares, in order."""
    n = sum(len(s) for s in squares)
    out = np.zeros((n, n), dtype=_dtype_of(squares))
    i = 0
    for s in squares:
        k = i + len(s)
        out[i:k, i:k] = s
        i = k
    return out


def _split_squares(x: np.ndarray, blocks, what: str) -> tuple[list, list, list]:
    """The products of a map its complex keeps as bipartite components:
    (cols, b* b) and (rows, b b*) per component b = x[rows, cols], and
    each component's smaller product, a tie keeping b* b, whose direct sum
    (``_diagonal_sum``) is the square solved.  Each b is taken in its own
    dtype, float64 when its entries are real even inside a complex map,
    and each product is formed once and refused if it underflowed.  A map
    with no nonzero has no component and an empty square."""
    inner, outer, solved = [], [], []
    for rows, cols in blocks:
        b = x[np.ix_(rows, cols)]
        if b.dtype.kind == "c" and not b.imag.any():
            b = np.ascontiguousarray(b.real)
        bh = b.conj().T
        up = _unless_underflowed(bh @ b, b, what)
        down = _unless_underflowed(b @ bh, b, what)
        inner.append((cols, up))
        outer.append((rows, down))
        solved.append(down if rows.size < cols.size else up)
    return inner, outer, solved


def _laplacian(n: int, up, down) -> np.ndarray:
    """up + down, the weighted Laplacian of an order-n space (down None on
    a chain's first space).  Each term is a whole n x n product, or the
    (indices, product) pieces of a split map's products, written where
    they land on one n x n zero: the first split term's disjoint pieces
    are assigned, the other term's added.  Whole terms keep the bytes of
    their sum, and a whole term beside only zero maps is itself."""
    terms = [up] if down is None else [up, down]
    whole = [t for t in terms if isinstance(t, np.ndarray)]
    if len(whole) == len(terms):
        return up if down is None else up + down
    # a split term leaves at most one whole term
    split = [t for t in terms if not isinstance(t, np.ndarray)]
    if not any(split):  # the products of zero maps
        return whole[0] if whole else np.zeros((n, n))
    dtype = _dtype_of(whole + [s for t in split for _, s in t])
    lap = np.array(whole[0], dtype=dtype) if whole else np.zeros((n, n), dtype=dtype)
    flat = lap.reshape(-1)
    for k, pieces in enumerate(split):
        # one map's components are disjoint, so the first term's pieces
        # land on zeros
        assign = not (k or whole)
        for idx, s in pieces:
            at = (idx[:, None] * n + idx).ravel()
            if assign:
                flat[at] = s.ravel()
            else:
                flat[at] += s.ravel()
    return lap


def _solved_square(up: np.ndarray, outer: np.ndarray, weighted: bool) -> np.ndarray:
    """The square of w_p that the torsion solves: w_p w_p* on a complex
    with Grams, whose ill-conditioned Grams it reads more accurately than
    w_p* w_p; without Grams the smaller of the two, a tie keeping w_p* w_p.
    The two share their positive spectrum."""
    return outer if weighted or len(outer) < len(up) else up


def _blocks(C: GradedCochainComplex | TwistedComplex):
    """Per space p, in order: (the square of w_p the torsion solves, the
    weighted Laplacian w_p* w_p + w_{p-1} w_{p-1}*, the GramFactor or
    None), where w_p = L_{p+1}* d_p L_p^{-*} is the Gram-weighted
    coboundary, each side weighted only when its space has a record (d_p
    itself without Grams).  w_p w_p* is the down term of the next space,
    so no square costs a product of its own.

    A map taken whole (with Grams, below ``SPLIT_MIN_ORDER``, or with a
    component over half) has its two products formed whole, from its
    integer nonzeros where it can (``_squares``), and its solved square
    is one of them (``_solved_square``).  A map without Grams that its
    complex keeps as bipartite components is handled one component at a
    time (``_split_squares``): each component's products are added
    straight into the Laplacians they reach (``_laplacian``), and the
    solved square is the direct sum of each component's smaller product,
    in float64 where the component is real, laid out only when its space
    is reached, so a solve loop holds one such square at a time.  Each
    product is built, and refused if it underflowed, once; one that
    overflowed is refused by the solver."""
    dims, maps, grams, labels, cyclic, blocks = _spaces(C)
    weighted = grams[0] is not None
    if weighted:
        blocks = (None,) * len(maps)
    w, out = [], []
    with np.errstate(over="ignore"):
        for p, d in enumerate(maps):
            if grams[p + 1] is not None:
                d = grams[p + 1].lower.conj().T @ d
            if grams[p] is not None:
                d = d @ grams[p].lower_inverse.conj().T
            w.append(d)

        def products(p: int) -> tuple:
            """(w_p* w_p, w_p w_p*, the square solved or its pieces)."""
            if blocks[p] is not None:
                return _split_squares(w[p], blocks[p], labels[p])
            exact = not weighted and max(w[p].shape) >= SPLIT_MIN_ORDER
            up, outer = (_unless_underflowed(s, maps[p], labels[p]) for s in _squares(w[p], exact))
            return up, outer, _solved_square(up, outer, weighted)

        # the down term of space 0: w_{-1} w_{-1}* on a cycle, none on a chain
        last = products(len(w) - 1) if cyclic else None
        down = last[1] if cyclic else None
        for p, x in enumerate(w):
            up, outer, square = last if cyclic and p == len(w) - 1 else products(p)
            if not len(x) and isinstance(down, np.ndarray):
                # w* w of a map with no rows (the graded top map) is
                # exactly zero; adding 0.0 in place gives the bytes of
                # up + down, where -0.0 reads +0.0
                down += 0.0
                lap = down
            else:
                lap = _laplacian(dims[p], up, down)
            out.append((square, lap, grams[p]))
            down = outer
    for square, lap, gram in out:
        yield (square if isinstance(square, np.ndarray) else _diagonal_sum(square)), lap, gram


def _solve(C: GradedCochainComplex | TwistedComplex, kernel_tol: float | None, vectors: bool):
    """The one solve loop of both torsions.  Per space p, in order: the
    weighted Laplacian for values only, refused when its cut cannot be
    trusted, then the square of w_p, with eigenvectors when ``vectors``
    (only its eigenvalues are read; ``eigh`` gives them more accurately
    than ``eigvalsh``); a split map's square is dropped once solved.
    Yields, per space, the square's decomposition and the (weighted
    Laplacian, GramFactor or None) pair that a kernel basis is read
    from."""
    for square, lap, gram in _blocks(C):
        _refuse_imprecise(hermitian_spectrum(lap, kernel_tol=kernel_tol, vectors=False))
        solved = hermitian_spectrum(square, kernel_tol=kernel_tol, vectors=vectors)
        del square
        yield solved, (lap, gram)


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
    eigenvalues of one solve of its weighted Laplacian, lifted.  Each
    basis has the dimension of the torsion's kernel."""
    return tuple(
        _lifted(name, hermitian_spectrum(lap).eigenvectors[:, :k], gram)
        for name, k, (lap, gram) in zip(names, kernel_dims, kept)
    )


def _telescoped(ups) -> float:
    """sum_p (-1)^p (1/2) log pdet(w_p* w_p), summed in space order."""
    total = 0.0
    for p, pd in enumerate(ups):
        total += (-1.0) ** p * 0.5 * pd.log_value
    return total


def _torsion(
    C: GradedCochainComplex | TwistedComplex,
    kernel_tol: float | None,
    tag: str,
    names: tuple[str, ...],
    vectors: bool,
) -> TorsionElement:
    """The body of both torsions: the telescoped sum over the squares of
    the maps, and per space the kernel dimension dim_p - r_p - r_{p-1},
    where r_p, the rank of w_p, counts the eigenvalues of its square above
    that square's own cut (r_{-1} is the rank of the map into space 0 on a
    cycle, 0 on a chain).  The harmonic bases are solved for when first
    read."""
    dims, *_, cyclic, _ = _spaces(C)
    solved = list(_solve(C, kernel_tol, vectors))
    pds = [pseudodet_of(square) for square, _ in solved]
    ranks = [square.positive_eigenvalues.size for square, _ in solved]
    kernel_dims = tuple(
        n - ranks[p] - (ranks[p - 1] if p > 0 or cyclic else 0) for p, n in enumerate(dims)
    )
    return TorsionElement(
        log_scalar=_telescoped(pds),
        form_bases=partial(_kernel_bases, names, kernel_dims, tuple(kept for _, kept in solved)),
        convention_tag=tag,
        kernel_dims=kernel_dims,
        warnings=tuple(w for pd in pds for w in pd.warnings),
        square_spectra=tuple(square.positive_eigenvalues for square, _ in solved),
    )


def reidemeister_torsion(
    C: GradedCochainComplex,
    *,
    kernel_tol: float | None = None,
) -> TorsionElement:
    """Graded torsion scalar with harmonic bases per degree: the
    telescoped sum over the chain of degrees."""
    names = tuple(f"H^{p}" for p in range(len(C.dims)))
    return _torsion(C, kernel_tol, REIDEMEISTER_TAG, names, vectors=True)


def twisted_torsion(
    T: TwistedComplex,
    *,
    kernel_tol: float | None = None,
) -> TorsionElement:
    """Parity-split torsion of a Z2-graded complex: the telescoped sum
    over its cycle of two spaces."""
    return _torsion(T, kernel_tol, TWISTED_TAG, ("even", "odd"), vectors=False)


def _rank(d: np.ndarray, blocks) -> int:
    """``np.linalg.matrix_rank(d)``, as a Python int: the singular values
    of d above max sigma * max(M, N) * eps.  With ``blocks``, the
    bipartite components of d, the singular values are those of the
    components, one SVD each, and the whole-matrix cut applies to all of
    them together; None runs one SVD of d."""
    if not d.size:
        return 0
    parts = [d] if blocks is None else [d[np.ix_(rows, cols)] for rows, cols in blocks]
    s = np.concatenate([np.zeros(0)] + [np.linalg.svd(x, compute_uv=False) for x in parts])
    return int(np.count_nonzero(s > s.max(initial=0.0) * (max(d.shape) * _EPS)))


def _off_a_star(C: GradedCochainComplex) -> tuple[list[int], list[int]]:
    """(dims, ranks of the maps) of the relative complex (K, cl st v) of
    C's simplicial complex K: the cochains of K that vanish on the closed
    star of a vertex v, the one in the most top simplices.  A p-simplex
    stays when it does not hold v and v joined to it is no simplex of K,
    that is, when it is not the face without v of a (p+1)-simplex that
    holds v, which the face table ``K.faces[p]`` names.

    The closed star is a cone on v, so it is connected and acyclic and
    b_p(K) = b_p(K, cl st v) + [p = 0].  At p = 0 that gives the rank of
    the relative delta_0 as n_0 - (b_0(K) - 1), with b_0(K) the
    components of K's edge table (``chain_models._betti_zero``), so that
    map is never written.  Each delta_p with p >= 1 is the submatrix of
    delta_p on the cells that stay; since C has checked delta_p against
    the face table (``GradedCochainComplex._own_incidence``), it is
    written from it, (-1)^i at each face that stays, and ranked by
    ``_rank``.  The map out of the top degree has no rows."""
    K = C.simplicial
    v = int(np.bincount(K.levels[-1].ravel(), minlength=len(K.vertices)).argmax())
    holds = [level == v for level in K.levels]
    in_star = [h.any(axis=1) for h in holds]
    for p, F in enumerate(K.faces):
        rows, i = np.nonzero(holds[p + 1])
        in_star[p][F[rows, i]] = True
    kept = [np.flatnonzero(~s) for s in in_star]
    ranks = [len(kept[0]) - (_betti_zero(K) - 1)]
    for p in range(1, K.dim):
        place = np.full(len(K.levels[p]), -1)
        place[kept[p]] = np.arange(len(kept[p]))
        cols = place[K.faces[p][kept[p + 1]]]  # -1 at a face in the star
        rows, i = np.nonzero(cols >= 0)
        d = np.zeros((len(kept[p + 1]), len(kept[p])))
        d[rows, cols[rows, i]] = _ALTERNATING[i]
        ranks.append(_rank(d, None))
    # on a 0-complex delta_0 is the top map, and its rank above reads 0
    return [len(k) for k in kept], ranks + [0] * (K.dim > 0)


def _rank_nullity(C: GradedCochainComplex | TwistedComplex) -> tuple[int, ...]:
    """dim - rank of the map out - rank of the map in, per space, as
    Python ints.

    Independent of the spectral route: the ranks come from the
    coboundaries themselves, not from any eigensolve or Laplacian.

    A graded complex whose maps are exactly the signed incidence of its
    simplicial complex K (``GradedCochainComplex._own_incidence``) is
    ranked on the relative complex (K, cl st v) instead (``_off_a_star``),
    by the cone identity b_p(K) = b_p(K, cl st v) + [p = 0]: on a sphere
    that leaves one cell and no map.  A flux twist of such a complex is
    ranked by degree block (``_folded_ranks``).  Every other complex (a
    lens, a local system, a bundle complex, any hand-made map) is ranked
    whole.

    Every map that is written out, relative or whole, is ranked by its
    singular values (``_rank``).  The one piece shared with the solves is
    the exact partition of each whole map into its bipartite components,
    which the complex keeps; a split map is ranked from its components'
    singular values under the whole matrix's cut, so every decision is
    the one ``matrix_rank`` makes."""
    coned = isinstance(C, GradedCochainComplex) and C._own_incidence
    if coned:
        dims, ranks = _off_a_star(C)
        cyclic = False
    else:
        dims, maps, _, _, cyclic, blocks = _spaces(C)
        if isinstance(C, TwistedComplex) and C._folded is not None:
            ranks = _folded_ranks(C)
        else:
            ranks = [_rank(d, b) for d, b in zip(maps, blocks)]
    return tuple(
        int(coned and p == 0) + n - ranks[p] - (ranks[p - 1] if p > 0 or cyclic else 0)
        for p, n in enumerate(dims)
    )


# the largest cut under which a direct summand of a folded map is ranked
# exactly (``_folded_ranks``); past it the whole map is ranked
_SUMMAND_CUT = 2.0**-26


def _folded_ranks(T: TwistedComplex) -> list[int]:
    """The ranks of (d_even, d_odd) of a flux twist of C, the complex of
    a simplicial complex K's own incidence, read by degree block.

    A folded map holds delta_p (degree p to p + 1) for every p of its
    parity and the flux blocks q -> q + d that ``twisted_differential``
    recorded.  A delta_p that shares neither its column degree p nor its
    row degree p + 1 with a flux block is a direct summand: no other
    block meets its rows or its columns.  Its rank is exact,
    r_p = n_p - b_p - r_{p-1} from C's exact Betti numbers
    (``_rank_nullity`` of C, read off a vertex star once and kept by C).
    The rest, the coupled part, is the submatrix on the flux blocks'
    degrees and those of the delta_p they touch; only it is decomposed,
    by one SVD.

    The coupled part is cut where ``matrix_rank`` cuts the whole map:
    at s max(M, N) eps, with M x N the whole folded map's shape and s its
    largest singular value, the coupled part's s_c or a summand's.  The
    whole map's singular values are the coupled part's together with the
    summands', so its ``matrix_rank`` decisions are reproduced when
    (a) every coupled singular value lies on the same side of
    s_c max(M, N) eps as of the whole cut.  This is checked exactly: none
    lies above the first and at or below max(s_c, u) max(M, N) eps,
    where u >= sqrt(||delta_p||_1 ||delta_p||_inf) =
    sqrt((p + 2) * the most cofaces of a p-simplex) bounds every
    summand's largest singular value; and
    (b) every nonzero singular value of a summand lies above the whole
    cut, so that ``matrix_rank`` counts r_p of them.  The summands are
    integer maps, and (b) is taken to hold while max(s_c, u) max(M, N)
    eps stays below 2^-26.
    Where either fails the map is ranked whole (``_rank``): a flux large
    enough to lift the whole cut over a summand's singular values keeps
    the whole map's answer.  A summand with a nonzero singular value
    below 2^-26 would be counted here where the whole map's cut might
    drop it; that is the one decision this path assumes rather than
    re-derives."""
    C, flux = T._folded
    K, top = C.simplicial, C.top
    coupled = {p for q, t in flux for p in (q, t - 1)}
    summands = [p for p in range(top) if p not in coupled]
    exact = [0] * top
    if summands:
        betti, r = C._betti, 0
        for p in range(top):
            r = exact[p] = C.dims[p] - betti[p] - r
    ranks = []
    for s, (d, blocks) in enumerate(zip((T.d_even, T.d_odd), T._components)):
        pairs = [(q, t) for q, t in flux if q % 2 == s] + [(p, p + 1) for p in coupled if p % 2 == s]
        part = d[np.ix_(
            _degree_rows(C.dims, sorted({t for _, t in pairs})),
            _degree_rows(C.dims, sorted({q for q, _ in pairs})),
        )] if pairs else d[:0, :0]
        sv = np.linalg.svd(part, compute_uv=False) if part.size else np.zeros(0)
        mine = [p for p in summands if p % 2 == s]
        u = max(
            (math.sqrt((p + 2) * np.bincount(K.faces[p].ravel(), minlength=1).max()) for p in mine),
            default=0.0,
        )
        size = max(d.shape) * _EPS
        lo = sv.max(initial=0.0) * size
        hi = max(sv.max(initial=0.0), u) * size
        if hi < _SUMMAND_CUT and not ((sv > lo) & (sv <= hi)).any():
            ranks.append(int(np.count_nonzero(sv > lo)) + sum(exact[p] for p in mine))
        else:
            ranks.append(_rank(d, blocks))
    return ranks


def cohomology_dimensions(C: GradedCochainComplex) -> tuple[int, ...]:
    """Betti numbers by rank-nullity: dim ker delta_p - rank delta_{p-1},
    read for the untwisted complex of a simplicial complex K off
    (K, cl st v) by the cone identity b_p(K) = b_p(K, cl st v) + [p = 0]
    (``_rank_nullity``).  No eigensolve is read, so they stay an
    independent check of the torsion's kernel dimensions.  The complex
    keeps them (``GradedCochainComplex._betti``)."""
    return C._betti


def twisted_cohomology_dimensions(T: TwistedComplex) -> tuple[int, int]:
    """(even, odd) cohomology dimensions of a Z2-graded complex by
    rank-nullity."""
    return _rank_nullity(T)
