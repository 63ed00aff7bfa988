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
for the harmonic bases, then one square of w_p (``_solved_square``):
w_p w_p* with Grams, which reads ill-conditioned Grams more accurately,
else the smaller of the two, a tie keeping w_p* w_p.  w_p w_p* is the
down term of the next space's Laplacian, formed anyway.  The graded
torsion solves its squares with eigenvectors, since ``eigh`` gives
their eigenvalues more accurately than ``eigvalsh`` on large cycles,
and reads only the eigenvalues; the twisted torsion solves them for
values only.  A Laplacian that is its space's one whole term can be the
very square solved there (beside a map with no part: the even space of a
zero-flux twist of ``cycle(n)`` from ``SPLIT_MIN_ORDER`` up); wanted for
values only, it is solved once, and the roundoff refusal and the
pseudo-determinant read that one decomposition.  A graded chain's end
still solves such a Laplacian twice, for values and then with
eigenvectors, which are different requests: Delta_0 = w_0* w_0 where
that is the smaller square, and Delta_top = w w* on the spheres.  The
harmonic bases of both are formed when first read, by one more solve of
each kept Laplacian, and the squares' positive spectra are kept for the
duality transport.  Kernel dimensions double as cohomology
dimensions.

One loop forms the products (``_products``), part by part.  A map's
parts are the bipartite components its complex keeps
(``spectral._map_blocks``), each taken in float64 when its entries are
real, or the whole map in its own dtype: with Grams, which fill in the
zero pattern of a nonzero map, below ``SPLIT_MIN_ORDER``, or with a
component over half.
Each part's b* b and b b* are formed once.  The square solved is the
direct sum of the parts' squares, passed to the solver as a
``spectral.BlockDiagonal``: on the twisted ``simplex_boundary(8)`` blocks
of 45, 84 and 84 (even) and 36, 126 and 36 (odd), where the laid-out
square would have order 213 or 198.  The products land on the Laplacian
of each space they reach (``_laplacian``); when they are all split it is
the direct sum of coarse blocks, the products that share an index summed
at their own size (``_coarse_blocks``): 45, 84 and 126 there, which the
solver splits again on their own zero patterns, down to one block of 33
(even) or 24 (odd) among 1 x 1s.  So nothing of order n is laid out for
a split map.  A map with no nonzero, the graded top map among them, has
no part.  A whole map keeps the bits of its dense products, which
without Grams are summed from its integer nonzeros where they can be
(``_squares``).

The cohomology dimensions (``cohomology_dimensions``) are read by
rank-nullity, with no eigensolve (``chain_models._rank_nullity``, whose
module describes its routes), so they stay an independent check of the
kernel dimensions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .chain_models import GradedCochainComplex, TwistedComplex, _rank_nullity
from .errors import ValidationError
from .spectral import (
    SPLIT_MIN_ORDER,
    BlockDiagonal,
    HarmonicBasis,
    _labels,
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
    solved (w* w or w w*, which share them, or their direct sum over the
    map's parts).
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


def _spaces(C: GradedCochainComplex | TwistedComplex) -> tuple:
    """(dims, maps, grams, labels, cyclic, blocks): maps[p] leaves space p
    for space p + 1 and, when cyclic, maps[-1] enters space 0.  The
    spaces are the degrees or the parities; grams[p] is the GramFactor
    record of space p, or None for the identity Gram, and grams[p + 1]
    that of the target of maps[p] (None past a graded top degree).
    blocks[p] are the bipartite components of maps[p] that the complex
    keeps, or None where the map is taken whole; the graded top map has
    none."""
    if isinstance(C, TwistedComplex):
        labels = ("d_even (even parity)", "d_odd (odd parity)")
        grams = C._gram_factors or (None, None)
        maps = (C.d_even, C.d_odd)
        return (C.even_dim, C.odd_dim), maps, grams + grams[:1], labels, True, C._components
    n = len(C.dims)
    labels = tuple(f"degree {p}" for p in range(n))
    grams = (C._gram_factors or (None,) * n) + (None,)
    maps = [C.delta(p) for p in range(n)]
    return C.dims, maps, grams, labels, False, C._components + ((),)


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
    """(x* x, x x*) of a map or a part of one.  When ``exact`` allows it
    (a whole map without Grams from ``SPLIT_MIN_ORDER`` up) and x passes
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
    xh = x.conj().T
    return xh @ x if inner is None else inner, x @ xh if outer is None else outer


def _products(w: np.ndarray, d: np.ndarray, parts, weighted: bool, what: str) -> tuple:
    """The products of w_p = w, the map d weighted, one part at a time:
    (cols, b* b) and (rows, b b*) per part b = w[rows, cols], and the
    square the torsion solves, the direct sum of each part's square
    (``_solved_square``): a ``spectral.BlockDiagonal`` whose blocks sit
    side by side, in part order, or the whole map's square as it is.
    The parts are the bipartite components that the complex keeps, each
    taken in float64 when its entries are real, or, with ``parts`` None,
    the whole map, with indices None, in its own dtype (``_squares`` sums
    it from its integer nonzeros where it can).

    A product that fell below the normal float64 range while d is
    nonzero is refused: Grams can do that to in-range entries, and a zero
    product would enlarge the kernel (overflow is refused by the solver).
    A positive semidefinite square holds its largest modulus on its
    diagonal (|a_ij|^2 <= a_ii a_jj), so the guard reads n entries, and
    ``d.any()`` runs only on an underflowed square."""
    inner, outer, solved = [], [], []
    for rows, cols in [(None, None)] if parts is None else parts:
        if rows is None:
            b, exact = w, not weighted and max(w.shape) >= SPLIT_MIN_ORDER
        else:
            b, exact = w[np.ix_(rows, cols)], False
            if b.dtype.kind == "c" and not b.imag.any():
                b = np.ascontiguousarray(b.real)
        up, down = _squares(b, exact)
        small = d.size and min(np.abs(up.diagonal()).max(), np.abs(down.diagonal()).max()) < _TINY
        if small and d.any():
            raise ValidationError(
                f"{what}: the Gram-weighted square of a nonzero coboundary underflowed float64"
            )
        inner.append((cols, up))
        outer.append((rows, down))
        solved.append(_solved_square(up, down, weighted))
    if parts is None:
        return inner, outer, solved[0]
    ends = np.cumsum([len(s) for s in solved], dtype=np.intp)
    index = tuple(np.arange(end - len(s), end) for s, end in zip(solved, ends))
    order = int(ends[-1]) if solved else 0
    return inner, outer, BlockDiagonal(tuple(solved), index, (order, order))


def _laplacian(n: int, up: list, down: list | None):
    """up + down, the weighted Laplacian of an order-n space, from the
    (indices, product) pieces of w_p* w_p and w_{p-1} w_{p-1}*: a whole
    product has indices None, a map with no nonzero has no piece, and
    down is None on a chain's first space, whose Laplacian is its up
    term.  Whole terms keep the bytes of their sum: two read up + down,
    and one beside a zero map's term has 0.0 added in place, where -0.0
    reads +0.0.  One whole term beside a split one is copied, and the
    split pieces are added where they land.  When every piece is split
    the Laplacian is the ``spectral.BlockDiagonal`` of ``_coarse_blocks``,
    and nothing of order n is formed."""
    pieces = up + (down or [])
    whole = [s for idx, s in pieces if idx is None]
    if whole and len(whole) == len(pieces):
        if len(whole) == 2:
            return whole[0] + whole[1]
        if down is not None:
            whole[0] += 0.0
        return whole[0]
    if not whole:
        return _coarse_blocks(n, up, down or [])
    lap = np.array(whole[0], dtype=np.result_type(np.float64, *(s for _, s in pieces)))
    for idx, s in pieces:
        if idx is not None:
            lap[np.ix_(idx, idx)] += s
    return lap


def _coarse_blocks(n: int, up: list, down: list) -> BlockDiagonal:
    """The order-n direct sum of the split (indices, product) pieces of
    the two terms, each term's pieces disjoint, as coarse blocks: the
    pieces joined through shared indices (an up piece with the down
    pieces it meets, and so on, ``spectral._labels``) sum into one block
    on the union of their indices, formed at its own size, a piece added
    by slices where its positions in the block are contiguous.  A block
    of one piece is that piece.  The solver splits each block again on
    its own exact zero pattern, which can be finer than the pieces' (the
    two terms can cancel)."""
    pieces = up + down
    owner = np.full((2, n), -1)
    for side, (first, term) in enumerate(((0, up), (len(up), down))):
        for k, (idx, _) in enumerate(term):
            owner[side, idx] = first + k
    met = owner[:, (owner >= 0).all(axis=0)]
    groups: dict[int, list] = {}
    for k, root in enumerate(_labels(met[0], met[1], len(pieces), bipartite=True).tolist()):
        groups.setdefault(root, []).append(pieces[k])
    blocks, index = [], []
    for members in groups.values():
        at, block = members[0]
        if len(members) > 1:
            at = np.unique(np.concatenate([idx for idx, _ in members]))
            dtype = np.result_type(np.float64, *(s for _, s in members))
            block = np.zeros((at.size, at.size), dtype=dtype)
            for idx, s in members:
                pos = np.searchsorted(at, idx)
                if pos[-1] - pos[0] == pos.size - 1:
                    span = slice(pos[0], pos[-1] + 1)
                    block[span, span] += s
                else:
                    block[np.ix_(pos, pos)] += s
        blocks.append(block)
        index.append(at)
    return BlockDiagonal(tuple(blocks), tuple(index), (n, n))


def _solved_square(up: np.ndarray, outer: np.ndarray, weighted: bool) -> np.ndarray:
    """The square of w_p (or of a part of it) that the torsion solves:
    w_p w_p* on a complex with Grams, whose ill-conditioned Grams it reads
    more accurately than w_p* w_p; without Grams the smaller of the two, a
    tie keeping w_p* w_p.  The two share their positive spectrum."""
    return outer if weighted or len(outer) < len(up) else up


def _blocks(C: GradedCochainComplex | TwistedComplex) -> list[tuple]:
    """Per space p, in order: (the square of w_p the torsion solves, the
    weighted Laplacian w_p* w_p + w_{p-1} w_{p-1}*, the GramFactor or
    None), where w_p = L_{p+1}* d_p L_p^{-*} is the Gram-weighted
    coboundary, each side weighted only when its space has a record (d_p
    itself without Grams).  w_p w_p* is the down term of the next space,
    so no square costs a product of its own.

    Each map's products are formed part by part (``_products``), and a
    split map's square and a Laplacian of split pieces are
    ``spectral.BlockDiagonal`` operators, which the solver takes block by
    block."""
    dims, maps, grams, labels, cyclic, blocks = _spaces(C)
    weighted = grams[0] is not None
    w, out = [], []
    with np.errstate(over="ignore"):
        for p, d in enumerate(maps):
            if grams[p + 1] is not None:
                d = grams[p + 1].lower.conj().T @ d
            if grams[p] is not None:
                d = d @ grams[p].lower_inverse.conj().T
            w.append(d)

        def products(p: int) -> tuple:
            # Grams fill in the zero pattern of a map, unless it is zero
            parts = None if weighted and blocks[p] else blocks[p]
            return _products(w[p], maps[p], parts, weighted, labels[p])

        # the down term of space 0: w_{-1} w_{-1}* on a cycle, none on a chain
        last = products(len(w) - 1) if cyclic else None
        down = last[1] if cyclic else None
        for p in range(len(w)):
            up, outer, solved = last if cyclic and p == len(w) - 1 else products(p)
            out.append((solved, _laplacian(dims[p], up, down), grams[p]))
            down = outer
    return out


def _solve(C: GradedCochainComplex | TwistedComplex, kernel_tol: float | None, vectors: bool):
    """The one solve loop of both torsions.  Per space p, in order: the
    weighted Laplacian for values only, refused when its cut cannot be
    trusted, then the square of w_p, with eigenvectors when ``vectors``
    (only its eigenvalues are read; ``eigh`` gives them more accurately
    than ``eigvalsh``).  A square that is the Laplacian just solved,
    wanted for values only, is not solved again: that one decomposition
    serves the refusal and the pseudo-determinant.  With ``vectors`` it
    is another request, solved again: a graded chain's Delta_0, and on
    the spheres Delta_top, which is also the square w w* below it.
    Yields, per space, the square's decomposition and the (weighted
    Laplacian, GramFactor or None) pair that a kernel basis is read
    from."""
    for square, lap, gram in _blocks(C):
        spectrum = hermitian_spectrum(lap, kernel_tol=kernel_tol, vectors=False)
        _refuse_imprecise(spectrum)
        if vectors or square is not lap:
            spectrum = hermitian_spectrum(square, kernel_tol=kernel_tol, vectors=vectors)
        yield spectrum, (lap, gram)


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


def cohomology_dimensions(C: GradedCochainComplex | TwistedComplex) -> tuple[int, ...]:
    """Cohomology dimensions by rank-nullity, per degree of a graded
    complex or per (even, odd) parity of a Z2-graded one: dim ker d_p -
    rank d_{p-1} (``chain_models._rank_nullity``).  No eigensolve is
    read, so they stay an independent check of the torsion's kernel
    dimensions."""
    return _rank_nullity(C)


twisted_cohomology_dimensions = cohomology_dimensions
