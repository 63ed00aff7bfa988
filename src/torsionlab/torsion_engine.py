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
Grams, w_p is d_p and its products are formed one component at a time.
A map taken whole from ``SPLIT_MIN_ORDER`` up whose nonzeros are
integers of modulus at most 2^20 (every simplicial coboundary) has its
two squares summed from the pairs of nonzeros in each row and in each
column instead: within 8192 rows and columns every sum is an integer
below 2^53, so the result has the bits of the dense product.  The
underflow guard on a square reads its diagonal, which holds its
largest modulus.

The rank-nullity dimensions stay independent of the eigensolver.  The
untwisted complex of a simplicial complex K, recognised by its maps
being exactly K's signed incidence ((-1)^i at ``K.faces[p]``, real, no
other nonzero; a verdict the complex reaches once, when it is built),
is ranked on the relative complex (K, cl st v) of a vertex's closed
star, a cone and so acyclic: b_p(K) = b_p(K, cl st v) + [p = 0].  On a
sphere that leaves one cell and no map.  A flux twist of such a complex
is ranked by degree block: each delta_p that no flux block meets is a
direct summand of its folded map, ranked exactly from those Betti
numbers, and only the coupled part, the degrees the flux blocks join
and the delta_p that meet them, is decomposed, by one SVD under the
whole map's cut (``_folded_ranks``).  For flux-twisted maps this is
the rank check that stays independent of the solves.  Every other
complex (a lens, a local system, a bundle complex, a twisted complex
built by hand or copied) is ranked whole.  A real map whose every row
is zero, one +1 and one -1, or a lone +1 or -1 (the delta_0 of every
complex without a local system, the covering graph of a permutation
local system, a relative delta_0) is an incidence map, oriented or grounded,
ranked exactly by union-find as its columns + 1 less the components of
its graph with a ground node.  Every other map is ranked by singular
values of the map itself, one SVD per component under the whole
matrix's ``matrix_rank`` cut.  The only piece they share with the
solves is that exact partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .chain_models import _ALTERNATING, GradedCochainComplex, TwistedComplex, _degree_rows
from .errors import ValidationError
from .spectral import (
    SPLIT_MIN_ORDER,
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
    solved (w* w or w w*, which share them).
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


def _solved_square(up: np.ndarray, outer: np.ndarray, weighted: bool) -> np.ndarray:
    """The square of w_p that the torsion solves: w_p w_p* on a complex
    with Grams, whose ill-conditioned Grams it reads more accurately than
    w_p* w_p; without Grams the smaller of the two, a tie keeping w_p* w_p.
    The two share their positive spectrum."""
    return outer if weighted or len(outer) < len(up) else up


def _blocks(C: GradedCochainComplex | TwistedComplex) -> list[tuple]:
    """Per space p: (the square of w_p the torsion solves
    (``_solved_square``), the weighted Laplacian
    w_p* w_p + w_{p-1} w_{p-1}*, the GramFactor or None), where
    w_p = L_{p+1}* d_p L_p^{-*} is the Gram-weighted coboundary, each side
    weighted only when its space has a record (d_p itself without Grams).
    w_p w_p* is the down term of the next space, so either square costs
    no product.  Without Grams each product is formed one bipartite
    component of d_p at a time (``_square``), and a map taken whole from
    its integer nonzeros where it can be (``_squares``); with Grams,
    whole.  Each product is built, and refused if it underflowed, once;
    one that overflowed is refused by the solver."""
    _, maps, grams, labels, cyclic, blocks = _spaces(C)
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

        def squares(p: int) -> tuple[np.ndarray, np.ndarray]:
            exact = not weighted and blocks[p] is None and max(w[p].shape) >= SPLIT_MIN_ORDER
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
            out.append((_solved_square(up, outer, weighted), lap, grams[p]))
            down = outer
    return out


def _solve(C: GradedCochainComplex | TwistedComplex, kernel_tol: float | None, vectors: bool):
    """The one solve loop of both torsions.  Per space p, in order: the
    weighted Laplacian for values only, refused when its cut cannot be
    trusted, then the square of w_p (``_solved_square``), with
    eigenvectors when ``vectors`` (only its eigenvalues are read; ``eigh``
    gives them more accurately than ``eigvalsh``).  Yields, per space,
    the square's decomposition and the (weighted Laplacian, GramFactor or
    None) pair that a kernel basis is read from."""
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


def _incidence_rank(d: np.ndarray) -> int | None:
    """The rank of a real map whose every row is zero, one +1 and one -1,
    or one lone +1 or -1 (a grounded row), or None for any other map.
    Such a map is the incidence matrix of an oriented multigraph on its
    columns and one more node, the ground, that each grounded row joins
    to its column; the ground's column is dropped.  Over any field the
    full incidence matrix has rank its nodes less its connected
    components (Kirchhoff), and dropping the ground's column keeps that
    rank, since each row sums to zero and so the ground's column is minus
    the sum of the other columns of its component: the rank is the
    columns + 1 less the components of the graph with the ground.  The components are those of its bipartite
    graph (``spectral._labels``) that hold a column or the ground."""
    if d.dtype.kind != "f":
        return None
    m, n = d.shape
    flat = np.flatnonzero(d != 0)  # a sixth of the cost of the float nonzeros
    values = d.ravel()[flat]
    rows, cols = np.divmod(flat, n)
    held = np.bincount(rows, minlength=m)
    if held.max(initial=0) > 2 or not (np.abs(values) == 1).all():
        return None
    # a row of two unit entries is one +1 and one -1 when they sum to 0
    if np.bincount(rows, weights=values, minlength=m)[held == 2].any():
        return None
    grounded = np.flatnonzero(held == 1)
    label = _labels(
        np.concatenate([rows, grounded]),
        np.concatenate([cols + m, np.full(grounded.size, m + n)]),
        m + n + 1,
        bipartite=True,
    )
    roots = np.zeros(m + n + 1, dtype=bool)
    roots[label[m:]] = True
    return n + 1 - int(np.count_nonzero(roots))


def _rank(d: np.ndarray, blocks) -> int:
    """``np.linalg.matrix_rank(d)``, as a Python int.

    An incidence map, oriented or grounded (``_incidence_rank``), is
    ranked exactly by union-find.  That is the rank ``matrix_rank`` finds
    within ``MAX_MODEL_SIZE`` (8192 cells), while the cut below is at
    most sqrt(2 * max degree) * 8192 * eps <= 128 * 8192 * eps ~ 2.3e-10.
    The smallest nonzero singular value of a component on v columns
    without the ground is sqrt(lambda_2) of its graph Laplacian, at least
    2/v >= 2.4e-4 by Mohar's lambda_2 >= 4/(v * diam).  With the ground
    it is the square root of the least eigenvalue of the grounded
    Laplacian (the Laplacian less the ground's row and column), whose
    inverse has trace the sum of the v effective resistances to the
    ground, each at most v: so the eigenvalue is at least 1/v^2 and the
    singular value at least 1/v >= 1.2e-4.

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


def _off_a_star(C: GradedCochainComplex) -> tuple[list[int], list[np.ndarray]]:
    """(dims, maps) of the relative complex (K, cl st v) of C's
    simplicial complex K: the cochains of K that vanish on the closed
    star of a vertex v, the one in the most top simplices.  A p-simplex
    stays when it does not hold v and v joined to it is no simplex of K,
    that is, when it is not the face without v of a (p+1)-simplex that
    holds v, which the face table ``K.faces[p]`` names.  The maps are
    the submatrices of delta_p on the cells that stay, with the zero-row
    map out of the top degree; since C has checked delta_p against the
    face table (``GradedCochainComplex._own_incidence``), they are
    written from it, (-1)^i at each face that stays, which costs a third
    of copying them out of an order-600 delta_0.  The closed star is a cone on v, so it is acyclic and
    b_p(K) = b_p(K, cl st v) + [p = 0]."""
    K = C.simplicial
    v = int(np.bincount(K.levels[-1].ravel(), minlength=len(K.vertices)).argmax())
    holds = [level == v for level in K.levels]
    in_star = [h.any(axis=1) for h in holds]
    for p, F in enumerate(K.faces):
        rows, i = np.nonzero(holds[p + 1])
        in_star[p][F[rows, i]] = True
    kept = [np.flatnonzero(~s) for s in in_star]
    maps = []
    for p, F in enumerate(K.faces):
        place = np.full(len(K.levels[p]), -1)
        place[kept[p]] = np.arange(len(kept[p]))
        cols = place[F[kept[p + 1]]]  # -1 at a face in the star
        rows, i = np.nonzero(cols >= 0)
        d = np.zeros((len(kept[p + 1]), len(kept[p])))
        d[rows, cols[rows, i]] = _ALTERNATING[i]
        maps.append(d)
    return [len(k) for k in kept], maps + [np.zeros((0, len(kept[-1])))]


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

    Either way an incidence map, oriented or grounded, is ranked exactly
    by union-find, and any other map by its singular values.  The one
    piece shared with the solves is the exact partition of each whole
    map into its bipartite components, which the complex keeps; a split
    map is ranked from its components' singular values under the whole
    matrix's cut, so every decision is the one ``matrix_rank`` makes
    (``_rank``)."""
    coned = isinstance(C, GradedCochainComplex) and C._own_incidence
    if coned:
        dims, maps = _off_a_star(C)
        blocks, cyclic = (None,) * len(maps), False
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
    (``_rank_nullity`` of C, read off a vertex star).  The rest, the
    coupled part, is the submatrix on the flux blocks' degrees and those
    of the delta_p they touch; only it is decomposed, by one SVD.

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
        betti, r = _rank_nullity(C), 0
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
    independent check of the torsion's kernel dimensions."""
    return _rank_nullity(C)


def twisted_cohomology_dimensions(T: TwistedComplex) -> tuple[int, int]:
    """(even, odd) cohomology dimensions of a Z2-graded complex by
    rank-nullity."""
    return _rank_nullity(T)
