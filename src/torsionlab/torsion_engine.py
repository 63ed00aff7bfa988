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
values only.  The harmonic bases of both are formed when first read, by
one more solve of each kept Laplacian, and the squares' positive spectra
are kept for the duality transport.  Kernel dimensions double as
cohomology dimensions (checked against rank-nullity in the test suite).

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
    than ``eigvalsh``).
    Yields, per space, the square's decomposition and the (weighted
    Laplacian, GramFactor or None) pair that a kernel basis is read
    from."""
    for square, lap, gram in _blocks(C):
        _refuse_imprecise(hermitian_spectrum(lap, kernel_tol=kernel_tol, vectors=False))
        yield hermitian_spectrum(square, kernel_tol=kernel_tol, vectors=vectors), (lap, gram)


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
