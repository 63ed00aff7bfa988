"""Finite simplicial and graded cochain models.

Combinatorial layer of the package: simplicial complexes closed under
faces, signed-incidence coboundaries (optionally twisted by a unitary
local system), Alexander-Whitney cup products, flux-twisted Z2-graded
differentials, and evaluation against a fundamental class.  ``fold`` is
the one owner of the Z2 parity layout.  A graded complex lays itself out
on the two parities once, on first use, and keeps the layout
(``GradedCochainComplex._parity``): twisted differentials and the
invariant complexes of ``circle_bundle`` are both assembled from it.

Conventions
-----------
Simplices are strictly increasing vertex tuples.  The coboundary of a
p-cochain f is (delta f)(v_0..v_{p+1}) = sum_i (-1)^i f(drop v_i), so the
matrix of delta_p is the transpose of the signed boundary matrix.  With a
local system, cochain values sit in the fiber over the smallest vertex of
the simplex; only the drop-v_0 face term needs transport, by U(v_0,v_1)
conjugate-transposed.  Grams default to the identity: a graded complex's
``gram`` and a twisted or invariant complex's parity Grams may be None,
which means the identity, and downstream solves then factor nothing.  An explicit
Gram is checked and Cholesky-factored once, by the graded complex that
holds it (``spectral._gram_factor``); the complex keeps the factor next
to the Gram.  Parity Grams are direct sums of degree Grams, so their
factors are assembled from the degree factors (``spectral._direct_sum``)
and a twisted or invariant complex built on the base takes them as they
are.  ``torsion_engine``'s one solve loop weights each coboundary by
these factors and solves Hermitian matrices, so no Gram reaches the
eigensolver and this is the only Gram check.

Matrices, Grams and cochains are stored read-only, as float64 when every
entry is exactly real and as complex128 otherwise, so a real complex is
solved in real arithmetic downstream.  An array that already is stored
so, and that no writable array shares, is kept without a copy.
Non-finite entries are refused, and so are coboundary and Gram entries
whose nonzero modulus lies outside [1e-150, 1e150], where squaring them
leaves float64 (Grams can still scale a square out of range;
``torsion_engine`` refuses that).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateSimplex,
    FluxError,
    FluxHasDegreeOne,
    FluxNotClosed,
    FluxNotNilpotent,
    GramNotPositive,
    InconsistentDimension,
    NonFlatLocalSystem,
    NotOriented,
    NotTopDegree,
    ValidationError,
)
from .spectral import GramFactor, _direct_sum, _gram_factor, _map_blocks

__all__ = [
    "SimplicialComplex",
    "LocalSystem",
    "GradedCochainComplex",
    "Cochain",
    "TwistedComplex",
    "build_simplicial",
    "coboundary_matrices",
    "signed_incidence",
    "cup",
    "cup_operator",
    "twisted_differential",
    "pair_with_fundamental_class",
    "fold",
]

_SQUARE_ZERO_TOL = 1e-12
_ENTRY_RANGE = (1e-150, 1e150)
# largest cell or degree count of a model, built or read from a file;
# every matrix is dense, so past this a model exhausts memory or time
MAX_MODEL_SIZE = 8192


def _refuse_oversize(what: str, *, cells: int = 0, degrees: int = 0) -> None:
    """Refuse a model from its closed-form size, before building it."""
    for count, unit in ((cells, "cells"), (degrees, "degrees")):
        if count > MAX_MODEL_SIZE:
            raise ValidationError(f"{what} is too large to build: over {MAX_MODEL_SIZE} {unit}")


def _is_frozen(a) -> bool:
    """True for a read-only array whose memory no writable array shares:
    every array on its base chain is read-only, and the chain ends in an
    array that owns its data."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def _freeze(a: np.ndarray, what: str, *, bounded: bool = False) -> np.ndarray:
    """Read-only array: float64 when every entry is real, else complex128.

    An array that already is one, C-ordered and frozen (``_is_frozen``),
    is kept as it is; anything else is copied.  Non-finite entries are
    refused, so nothing downstream computes with them; ``bounded`` also
    refuses nonzero entries whose modulus lies outside [1e-150, 1e150],
    where squaring them in a Laplacian would overflow or underflow
    float64 into a wrong kernel.  Both scans read one array of moduli.
    """
    out = np.asarray(a)
    if out.dtype.kind != "f":
        out = out.astype(np.complex128, copy=False)
        if not out.imag.any():
            out = out.real
    dtype = np.complex128 if out.dtype.kind == "c" else np.float64
    if not (out.dtype == dtype and out.flags.c_contiguous and _is_frozen(out)):
        out = np.array(out, dtype=dtype, order="C")
        out.setflags(write=False)
    if out.size:
        moduli = np.abs(out)
        top = float(moduli.max())
        # a complex modulus can overflow to inf from finite parts
        if not math.isfinite(top) and not np.isfinite(out).all():
            raise ValidationError(f"{what} has a non-finite entry")
        if bounded:
            _check_entry_range(moduli, top, what)
    return out


def _check_entry_range(moduli: np.ndarray, top: float, what: str) -> None:
    lo, hi = _ENTRY_RANGE
    tiny = (moduli < lo) & (moduli != 0)
    if top <= hi and not tiny.any():
        return
    bad = top if top > hi else float(moduli[tiny].min())
    raise ValidationError(
        f"{what} has an entry of modulus {bad:.3e} outside [{lo:.0e}, {hi:.0e}]; "
        f"its square would {'overflow' if bad > 1.0 else 'underflow'} in float64"
    )


def _norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a)) if a.size else 0.0


def _product_norm(a: np.ndarray, b: np.ndarray, blocks) -> float:
    """Frobenius norm of a @ b, the square-zero residual.  ``blocks`` are
    the bipartite components of b (``spectral._map_blocks``); with them
    the norm is the root of sum ||a[:, R] b[R, C]||^2 over the components'
    rows R and columns C, since b is zero outside them.  None forms the
    whole product."""
    if blocks is None:
        return _norm(a @ b)
    return math.hypot(*(_norm(a[:, rows] @ b[np.ix_(rows, cols)]) for rows, cols in blocks))


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed simplicial complex on integer vertices.

    ``simplices[p]`` lists the p-simplices in lexicographic order as
    strictly increasing vertex tuples.  ``orientation`` optionally assigns
    a sign in {+1, -1} to each top-dimensional simplex, in list order.
    """

    simplices: tuple[tuple[tuple[int, ...], ...], ...]
    orientation: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * n for p, n in enumerate(self.f_vector))

    @cached_property
    def _index(self) -> tuple[dict[tuple[int, ...], int], ...]:
        return tuple(
            {simplex: i for i, simplex in enumerate(level)}
            for level in self.simplices
        )

    def index(self, p: int, simplex: tuple[int, ...]) -> int:
        return self._index[p][simplex]

    def n(self, p: int) -> int:
        """Number of p-simplices; zero outside the supported range."""
        if 0 <= p <= self.dim:
            return len(self.simplices[p])
        return 0


def _normalize_simplex(raw: Iterable[int]) -> tuple[int, ...]:
    verts = tuple(int(v) for v in raw)
    if not verts:
        raise ValidationError("empty simplex")
    if any(v < 0 for v in verts):
        raise ValidationError(f"negative vertex id in {verts}")
    if len(set(verts)) != len(verts):
        raise ValidationError(f"repeated vertex in simplex {verts}")
    return tuple(sorted(verts))


def build_simplicial(
    top_simplices: Iterable[Iterable[int]],
    orientation: Mapping[tuple[int, ...], int] | Sequence[int] | None = None,
    *,
    allow_mixed_dimension: bool = False,
) -> SimplicialComplex:
    """Close the given top simplices under faces.

    Parameters
    ----------
    top_simplices:
        Vertex tuples; order inside a tuple is ignored.
    orientation:
        Optional signs for the top simplices: either a mapping keyed by
        vertex tuple or a sequence in input order.  Requires uniform top
        dimension, and the signs must induce opposite orientations on
        every shared codimension-1 face.
    allow_mixed_dimension:
        Accept tops of different dimensions.  Off by default.
    """
    tops = [_normalize_simplex(t) for t in top_simplices]
    if not tops:
        raise ValidationError("need at least one top simplex")
    seen: set[tuple[int, ...]] = set()
    for t in tops:
        if t in seen:
            raise DuplicateSimplex(f"top simplex {t} supplied twice")
        seen.add(t)
    top_dims = {len(t) - 1 for t in tops}
    if len(top_dims) > 1 and not allow_mixed_dimension:
        raise InconsistentDimension(
            f"top simplices of dimensions {sorted(top_dims)}; "
            "pass allow_mixed_dimension=True to accept"
        )

    # every top is a cell, and a k-vertex top closes to 2^k - 1 of them:
    # refuse from those counts before enumerating faces
    _refuse_oversize("simplicial complex", cells=len(tops))
    dim = max(top_dims)
    _refuse_oversize("simplicial complex", cells=2 ** min(dim + 1, 64) - 1)
    levels: list[set[tuple[int, ...]]] = [set() for _ in range(dim + 1)]
    for t in tops:
        d = len(t) - 1
        for p in range(d + 1):
            levels[p].update(itertools.combinations(t, p + 1))
        _refuse_oversize("simplicial complex", cells=sum(map(len, levels)))
    simplices = tuple(tuple(sorted(level)) for level in levels)

    signs: tuple[int, ...] | None = None
    if orientation is not None:
        if len(top_dims) > 1:
            raise NotOriented("orientation requires uniform top dimension")
        if isinstance(orientation, Mapping):
            table = {_normalize_simplex(k): int(v) for k, v in orientation.items()}
            if set(table) != set(tops):
                raise NotOriented("orientation must cover exactly the top simplices")
            signs = tuple(table[t] for t in simplices[dim])
        else:
            listed = tuple(int(s) for s in orientation)
            if len(listed) != len(tops):
                raise NotOriented("orientation must give one sign per top simplex")
            order = {t: i for i, t in enumerate(tops)}
            # reorder the given signs to the lexicographic top-simplex order
            signs = tuple(listed[order[t]] for t in simplices[dim])
        if any(s not in (-1, 1) for s in signs):
            raise NotOriented("orientation signs must lie in {+1, -1}")
        _check_coherent(simplices[dim], signs)

    return SimplicialComplex(simplices=simplices, orientation=signs)


def _check_coherent(tops: Sequence[tuple[int, ...]], signs: Sequence[int]) -> None:
    # each interior codim-1 face must receive cancelling induced signs
    induced: dict[tuple[int, ...], list[int]] = {}
    for t, s in zip(tops, signs):
        for i in range(len(t)):
            face = t[:i] + t[i + 1:]
            induced.setdefault(face, []).append(s * (-1) ** i)
    for face, contribs in induced.items():
        if len(contribs) > 2:
            raise NotOriented(f"face {face} shared by {len(contribs)} top simplices")
        if len(contribs) == 2 and sum(contribs) != 0:
            raise NotOriented(f"incoherent orientation across face {face}")


def _is_connected(K: SimplicialComplex) -> bool:
    verts = K.simplices[0]
    if len(verts) <= 1:
        return True
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    if K.dim >= 1:
        for a, b in K.simplices[1]:
            ra, rb = find((a,)), find((b,))
            if ra != rb:
                parent[ra] = rb
    roots = {find(v) for v in verts}
    return len(roots) == 1


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalSystem:
    """Unitary local system given by edge holonomies.

    ``holonomy`` maps a sorted edge (a, b) with a < b to the transport
    matrix from the fiber at a to the fiber at b.  Missing edges default
    to the identity.
    """

    rank: int
    holonomy: Mapping[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValidationError("local system rank must be >= 1")
        frozen = {}
        for (a, b), mat in self.holonomy.items():
            if not a < b:
                raise ValidationError(f"holonomy key {(a, b)} is not a sorted edge")
            m = _freeze(mat, f"holonomy on edge {(a, b)}")
            if m.shape != (self.rank, self.rank):
                raise ValidationError(
                    f"holonomy for edge {(a, b)} has shape {m.shape}, "
                    f"expected {(self.rank, self.rank)}"
                )
            frozen[(a, b)] = m
        object.__setattr__(self, "holonomy", frozen)

    def transport(self, a: int, b: int) -> np.ndarray:
        """Transport matrix along the edge from vertex a to vertex b."""
        if a < b:
            U = self.holonomy.get((a, b))
            return np.eye(self.rank) if U is None else U
        U = self.holonomy.get((b, a))
        return np.eye(self.rank) if U is None else U.conj().T


def validate_local_system(K: SimplicialComplex, L: LocalSystem) -> None:
    """Check unitarity on every edge and flatness on every triangle, to a
    relative 1e-12."""
    eye = np.eye(L.rank)
    for edge, U in L.holonomy.items():
        if _norm(U.conj().T @ U - eye) > 1e-12 * L.rank:
            raise NonFlatLocalSystem(f"holonomy on edge {edge} is not unitary")
    if K.dim >= 2:
        for a, b, c in K.simplices[2]:
            lhs = L.transport(b, c) @ L.transport(a, b)
            rhs = L.transport(a, c)
            if _norm(lhs - rhs) > 1e-12 * max(1.0, _norm(rhs)):
                raise NonFlatLocalSystem(
                    f"holonomy fails flatness on triangle {(a, b, c)}"
                )


# ---------------------------------------------------------------------------
# graded cochain complexes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GradedCochainComplex:
    """Finite cochain complex with optional Grams.

    ``coboundary[p]`` maps degree p to degree p+1 and has shape
    (dims[p+1], dims[p]).  ``gram`` is either None (identity inner
    products throughout) or one Hermitian positive definite matrix per
    degree, checked and factored once, here, with the factors kept for
    the solves.  ``simplicial`` remembers the complex a simplicial build
    came from, which unlocks cup products; ``local_rank`` is the fiber
    rank of the local system used during the build (1 when untwisted).
    """

    dims: tuple[int, ...]
    coboundary: tuple[np.ndarray, ...]
    gram: tuple[np.ndarray, ...] | None = None
    simplicial: SimplicialComplex | None = field(default=None, repr=False)
    local_rank: int = 1
    # one spectral.GramFactor per degree, or None with the identity Grams
    _gram_factors: tuple[GramFactor, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        if not dims or any(n < 0 for n in dims):
            raise ValidationError(f"bad dimension vector {dims}")
        _refuse_oversize("cochain complex", cells=sum(dims), degrees=len(dims))
        object.__setattr__(self, "dims", dims)
        cob = tuple(
            _freeze(d, f"coboundary {p}", bounded=True) for p, d in enumerate(self.coboundary)
        )
        if len(cob) != len(dims) - 1:
            raise ValidationError(
                f"{len(cob)} coboundaries for {len(dims)} degrees; expected {len(dims) - 1}"
            )
        for p, d in enumerate(cob):
            if d.shape != (dims[p + 1], dims[p]):
                raise ValidationError(
                    f"coboundary {p} has shape {d.shape}, expected {(dims[p + 1], dims[p])}"
                )
        object.__setattr__(self, "coboundary", cob)
        for p in range(len(cob) - 1):
            a, b = cob[p + 1], cob[p]
            resid = _product_norm(a, b, self._components[p])
            if resid > _SQUARE_ZERO_TOL * (1.0 + _norm(a) * _norm(b)):
                raise ValidationError(
                    f"coboundary does not square to zero at degree {p}: residual {resid:.3e}"
                )
        if self.gram is not None:
            grams = tuple(
                _freeze(g, f"Gram at degree {p}", bounded=True) for p, g in enumerate(self.gram)
            )
            if len(grams) != len(dims):
                raise ValidationError("need one Gram per degree")
            factors = tuple(
                _gram_factor(g, dims[p], f"Gram at degree {p}") for p, g in enumerate(grams)
            )
            object.__setattr__(self, "gram", grams)
            object.__setattr__(self, "_gram_factors", factors)

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    @cached_property
    def _components(self) -> tuple:
        """Per coboundary, its bipartite components
        (``spectral._map_blocks``), or None where it is taken whole: found
        on first use, by the square-zero check when there are two or
        more, and kept for the ranks and products of ``torsion_engine``."""
        return tuple(_map_blocks(d) for d in self.coboundary)

    @cached_property
    def _parity(self) -> tuple[tuple[np.ndarray, np.ndarray], tuple[GramFactor, GramFactor] | None]:
        """The complex on the Z2 grading, laid out on first use and kept:
        the coboundary folded (from even, from odd), read-only, and the
        (even, odd) GramFactor records assembled from the degree factors,
        or None with the identity Grams."""
        folded = fold(self.dims, self.coboundary, 1)
        for a in folded:
            a.setflags(write=False)
        factors = self._gram_factors
        if factors is None:
            return folded, None
        return folded, (_direct_sum(factors[0::2]), _direct_sum(factors[1::2]))

    def gram_at(self, p: int) -> np.ndarray:
        if self.gram is None:
            return np.eye(self.dims[p])
        return self.gram[p]

    def delta(self, p: int) -> np.ndarray:
        """Coboundary out of degree p; a zero-row matrix at the top."""
        if p < 0 or p > self.top:
            raise ValidationError(f"degree {p} outside 0..{self.top}")
        if p == self.top:
            return np.zeros((0, self.dims[p]))
        return self.coboundary[p]

    def with_gram(self, gram: Sequence[np.ndarray]) -> "GradedCochainComplex":
        return replace(self, gram=tuple(gram))


def signed_incidence(K: SimplicialComplex, p: int) -> np.ndarray:
    """Integer matrix of delta_p for trivial coefficients.

    Shape (n_{p+1}, n_p); entry is (-1)^i when the column simplex is the
    i-th face of the row simplex.
    """
    rows, cols = K.n(p + 1), K.n(p)
    out = np.zeros((rows, cols), dtype=np.int64)
    if rows == 0 or cols == 0:
        return out
    for r, simplex in enumerate(K.simplices[p + 1]):
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1:]
            out[r, K.index(p, face)] += (-1) ** i
    return out


def coboundary_matrices(
    K: SimplicialComplex,
    local_system: LocalSystem | None = None,
) -> GradedCochainComplex:
    """Assemble the cochain complex of K, optionally twisted by a flat
    unitary local system.

    The untwisted matrices are real.  Square-zero is checked once, by
    ``GradedCochainComplex``: within ``MAX_MODEL_SIZE`` its bound is far
    below 1, so it catches every nonzero integer residual.  A complex with
    a local system of rank m has m x cells degrees of freedom, refused
    past ``MAX_MODEL_SIZE`` before anything is built.
    """
    if local_system is None:
        deltas = [signed_incidence(K, p).astype(np.float64) for p in range(K.dim)]
        return GradedCochainComplex(
            dims=K.f_vector,
            coboundary=tuple(deltas),
            simplicial=K,
        )

    _refuse_oversize("complex with a local system", cells=local_system.rank * sum(K.f_vector))
    validate_local_system(K, local_system)
    m = local_system.rank
    dims = tuple(n * m for n in K.f_vector)
    dtype = np.result_type(np.float64, *local_system.holonomy.values())
    deltas = []
    for p in range(K.dim):
        block = np.kron(signed_incidence(K, p), np.eye(m, dtype=dtype))
        for r, simplex in enumerate(K.simplices[p + 1]):
            # the drop-v_0 face's value lives over simplex[1]; pull back to simplex[0]
            c = K.index(p, simplex[1:])
            U = local_system.transport(simplex[1], simplex[0])
            block[r * m:(r + 1) * m, c * m:(c + 1) * m] = U
        block += 0.0  # kron leaves -0.0 where -1 meets a zero of I_m
        deltas.append(block)
    return GradedCochainComplex(
        dims=dims,
        coboundary=tuple(deltas),
        simplicial=K,
        local_rank=m,
    )


# ---------------------------------------------------------------------------
# cochains and cup products
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Cochain:
    """Homogeneous cochain: a degree and a coefficient vector."""

    degree: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValidationError(f"negative cochain degree {self.degree}")
        c = _freeze(np.atleast_1d(self.coefficients), f"degree-{self.degree} cochain")
        if c.ndim != 1:
            raise ValidationError("cochain coefficients must be a vector")
        object.__setattr__(self, "coefficients", c)

    @property
    def norm(self) -> float:
        return _norm(self.coefficients)


def _check_cochain_on(K: SimplicialComplex, a: Cochain) -> None:
    if a.coefficients.shape[0] != K.n(a.degree):
        raise ValidationError(
            f"degree-{a.degree} cochain has {a.coefficients.shape[0]} coefficients, "
            f"complex has {K.n(a.degree)} simplices"
        )


def cup(a: Cochain, b: Cochain, K: SimplicialComplex) -> Cochain:
    """Alexander-Whitney cup product of trivial-coefficient cochains.

    (a cup b)(v_0..v_{p+q}) = a(v_0..v_p) * b(v_p..v_{p+q}).  Associative
    and Leibniz-compatible with the coboundary, but not graded
    commutative.  When p+q exceeds the dimension of K the zero cochain is
    returned; that is the documented overflow behavior, not an error.
    """
    op = cup_operator(K, a, b.degree)
    _check_cochain_on(K, b)
    return Cochain(a.degree + b.degree, op @ b.coefficients)


def cup_operator(K: SimplicialComplex, h: Cochain, q: int) -> np.ndarray:
    """Matrix of b -> h cup b from degree q into degree q + deg h."""
    _check_cochain_on(K, h)
    p = h.degree
    d = p + q
    if d > K.dim:
        return np.zeros((0, K.n(q)))
    hv = h.coefficients
    out = np.zeros((K.n(d), K.n(q)), dtype=hv.dtype)
    for r, simplex in enumerate(K.simplices[d]):
        front = simplex[:p + 1]
        back = simplex[p:]
        out[r, K.index(q, back)] += hv[K.index(p, front)]
    return out


def pair_with_fundamental_class(K: SimplicialComplex, h: Cochain):
    """Evaluate a top-degree cochain against the oriented sum of top cells.

    Requires a coherently oriented, connected complex.  Coboundaries pair
    to zero, and the pairing is linear in h.  Returns a float when the
    value is real.
    """
    if K.orientation is None:
        raise NotOriented("complex carries no orientation")
    if not _is_connected(K):
        raise NotOriented("fundamental class needs a connected complex")
    if h.degree != K.dim:
        raise NotTopDegree(f"cochain degree {h.degree}, complex dimension {K.dim}")
    _check_cochain_on(K, h)
    signs = np.asarray(K.orientation, dtype=np.complex128)
    value = complex(signs @ h.coefficients)
    if value.imag == 0.0:
        return value.real
    return value


# ---------------------------------------------------------------------------
# Z2-graded assembly and twisted differentials
# ---------------------------------------------------------------------------

def fold(
    dims: Sequence[int],
    ops: Sequence[np.ndarray],
    shift: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lay a degree-homogeneous operator family out on the Z2 grading.

    ``ops[q]`` maps degree q to degree q+shift and must have shape
    (dims[q+shift], dims[q]); blocks whose target lies past the top
    degree are skipped.  Returns (from_even, from_odd): the operator on
    the direct sum of the even degrees and on that of the odd degrees,
    each into the degrees of the shifted parity, every direct sum ordered
    by increasing degree.  This is the one place the parity layout is
    computed.
    """
    offset, size = [], [0, 0]
    for q, n in enumerate(dims):
        offset.append(size[q % 2])
        size[q % 2] += n
    dtype = np.result_type(np.float64, *ops)
    out = tuple(np.zeros((size[(s + shift) % 2], size[s]), dtype=dtype) for s in (0, 1))
    for q, block in enumerate(ops):
        t = q + shift
        if t >= len(dims):
            continue
        if block.shape != (dims[t], dims[q]):
            raise ValidationError(
                f"block {q}->{t} has shape {block.shape}, expected {(dims[t], dims[q])}"
            )
        if block.size:
            r0, c0 = offset[t], offset[q]
            out[q % 2][r0:r0 + dims[t], c0:c0 + dims[q]] += block
    return out


@dataclass(frozen=True, eq=False)
class TwistedComplex:
    """Z2-graded complex with total differentials and parity Grams.

    ``gram_even`` and ``gram_odd`` are both None (identity inner products
    on both parities, as for a Gram-less graded complex) or both
    Hermitian positive definite; one without the other is refused.  A
    Gram given as an array is checked and factored once, here; one given
    as a ``spectral.GramFactor`` record was checked where the record was
    made and is taken with its factor.  The complex keeps the factors for
    the solves and stores the Grams themselves in the two fields.
    """

    even_dim: int
    odd_dim: int
    d_even: np.ndarray
    d_odd: np.ndarray
    gram_even: np.ndarray | GramFactor | None
    gram_odd: np.ndarray | GramFactor | None
    # spectral.GramFactor of (even, odd), or None with the identity Grams
    _gram_factors: tuple[GramFactor, GramFactor] | None = field(
        default=None, init=False, repr=False
    )
    # the bipartite components (spectral._map_blocks) of d_even and d_odd,
    # or None for a map taken whole: found once, for the square-zero
    # check, and kept for the ranks and products of torsion_engine
    _components: tuple = field(default=(None, None), init=False, repr=False)

    def __post_init__(self) -> None:
        de = _freeze(self.d_even, "d_even (even parity)", bounded=True)
        do = _freeze(self.d_odd, "d_odd (odd parity)", bounded=True)
        if de.shape != (self.odd_dim, self.even_dim):
            raise ValidationError(f"d_even shape {de.shape} != {(self.odd_dim, self.even_dim)}")
        if do.shape != (self.even_dim, self.odd_dim):
            raise ValidationError(f"d_odd shape {do.shape} != {(self.even_dim, self.odd_dim)}")
        object.__setattr__(self, "d_even", de)
        object.__setattr__(self, "d_odd", do)
        if (self.gram_even is None) != (self.gram_odd is None):
            raise ValidationError("parity Grams must be given both or neither")
        if self.gram_even is not None:
            factors = (
                _parity_factor(self.gram_even, self.even_dim, "Gram at even parity"),
                _parity_factor(self.gram_odd, self.odd_dim, "Gram at odd parity"),
            )
            object.__setattr__(self, "gram_even", factors[0].gram)
            object.__setattr__(self, "gram_odd", factors[1].gram)
            object.__setattr__(self, "_gram_factors", factors)
        even, odd = _map_blocks(de), _map_blocks(do)
        object.__setattr__(self, "_components", (even, odd))
        scale = 1.0 + _norm(de) * _norm(do)
        if max(_product_norm(do, de, even), _product_norm(de, do, odd)) > _SQUARE_ZERO_TOL * scale:
            raise FluxNotNilpotent("total differential does not square to zero")


def _parity_factor(g: np.ndarray | GramFactor, n: int, what: str) -> GramFactor:
    if not isinstance(g, GramFactor):
        return _gram_factor(_freeze(g, what, bounded=True), n, what)
    if g.gram.shape != (n, n):
        raise GramNotPositive(f"{what} has shape {g.gram.shape}, expected {(n, n)}")
    return g


def _flux_components(flux) -> list[Cochain]:
    if flux is None:
        return []
    if isinstance(flux, Cochain):
        items = [flux]
    else:
        items = list(flux)
    by_degree: dict[int, np.ndarray] = {}
    for h in items:
        if not isinstance(h, Cochain):
            raise FluxError(f"flux component of type {type(h).__name__}")
        if h.degree == 1:
            raise FluxHasDegreeOne("flux with a degree-1 component is rejected")
        if h.degree % 2 == 0 or h.degree < 3:
            raise FluxError(f"flux degree {h.degree}: components must have odd degree >= 3")
        prev = by_degree.get(h.degree)
        if prev is None:
            by_degree[h.degree] = np.array(h.coefficients)
        elif prev.shape != h.coefficients.shape:
            raise FluxError(
                f"degree-{h.degree} flux components have {prev.shape[0]} "
                f"and {h.coefficients.shape[0]} coefficients"
            )
        else:
            by_degree[h.degree] = prev + h.coefficients
    return [Cochain(degree=d, coefficients=v) for d, v in sorted(by_degree.items())]


def twisted_differential(C: GradedCochainComplex, flux=None) -> TwistedComplex:
    """Deform the coboundary by odd-degree flux and fold to Z2 grading.

    A complex built from a simplicial complex (``C.simplicial``) takes
    cup products by Alexander-Whitney.  A bare complex without simplicial
    backing uses minimal-model multiplication: the flux acts on a
    one-dimensional degree 0 by the unit law and kills positive degrees,
    which is the wedge-of-spheres convention.  ``flux`` is one Cochain or
    a list of them, every component of odd degree >= 3.

    Checks, in order: degree constraints, the [1e-150, 1e150] range of
    every nonzero flux entry (ValidationError), closedness of each component
    (FluxNotClosed), vanishing of the cup square (FluxNotNilpotent), and
    finally that the assembled total differential squares to zero.
    """
    if not isinstance(C, GradedCochainComplex):
        raise ValidationError(f"cannot twist a {type(C).__name__}")
    K = C.simplicial

    components = _flux_components(flux)
    nontrivial = [h for h in components if h.coefficients.any()]
    if nontrivial and C.local_rank != 1:
        raise FluxError("flux over a nontrivial local system is not supported")

    dims = C.dims
    top = C.top
    for h in components:
        if h.degree > top:
            raise FluxError(f"flux degree {h.degree} exceeds top degree {top}")
        expected = K.n(h.degree) if K is not None else dims[h.degree]
        if h.coefficients.shape[0] != expected:
            raise FluxError(
                f"degree-{h.degree} flux has {h.coefficients.shape[0]} coefficients, expected {expected}"
            )
        # before any norm of the flux, which would overflow or underflow
        _freeze(h.coefficients, f"degree-{h.degree} flux", bounded=True)

    # closedness of each homogeneous component
    for h in nontrivial:
        resid = _norm(C.delta(h.degree) @ h.coefficients)
        if resid > _SQUARE_ZERO_TOL * max(1.0, h.norm):
            raise FluxNotClosed(f"degree-{h.degree} flux is not closed (residual {resid:.3e})")

    # cup-square: for minimal models this vanishes identically, since the
    # flux starts in degree >= 3 and products of positive classes are zero
    if K is not None:
        for ha in nontrivial:
            for hb in nontrivial:
                sq = cup(ha, hb, K)
                if _norm(sq.coefficients) > _SQUARE_ZERO_TOL * max(1.0, ha.norm * hb.norm):
                    raise FluxNotNilpotent(
                        f"flux cup square in degree {sq.degree} has norm "
                        f"{_norm(sq.coefficients):.3e}"
                    )

    (d_even, d_odd), grams = C._parity
    for h in nontrivial:
        if K is not None:
            ops = [cup_operator(K, h, q) for q in range(top + 1 - h.degree)]
        elif dims[0] > 1:
            raise FluxError("flux action undetermined: bare complex with dim C^0 != 1")
        else:
            # minimal-model multiplication: unit law in degree 0, zero above
            ops = [h.coefficients.reshape(-1, 1)] if dims[0] else []
        from_even, from_odd = fold(dims, ops, h.degree)
        d_even, d_odd = d_even + from_even, d_odd + from_odd

    gram_even, gram_odd = grams or (None, None)
    return TwistedComplex(
        even_dim=d_even.shape[1],
        odd_dim=d_odd.shape[1],
        d_even=d_even,
        d_odd=d_odd,
        gram_even=gram_even,
        gram_odd=gram_odd,
    )
