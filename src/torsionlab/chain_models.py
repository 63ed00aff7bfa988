"""Finite simplicial and graded cochain models.

Combinatorial layer of the package: simplicial complexes closed under
faces, signed-incidence coboundaries (optionally twisted by a unitary
local system), Alexander-Whitney cup products, flux-twisted Z2-graded
differentials, and evaluation against a fundamental class.  ``fold`` is
the one owner of the Z2 parity layout.  A graded complex lays itself out
on the two parities once, on first use, and keeps the layout
(``GradedCochainComplex._parity``): twisted differentials and the
invariant complexes of ``circle_bundle`` are both assembled from it.

Simplicial complexes are integer arrays.  ``build_simplicial`` ranks the
vertex ids (any non-negative integers; ids past int64 are kept as Python
ints in an object array) and keeps each level p as a sorted (n_p, p+1)
array of vertex ranks.  It closes the tops from the top down: the faces
of level p without one vertex are sorted, with the (p-1)-dimensional
tops, into level p-1 by one integer key per row (its ranks as base-V
digits, re-ranked before they could overflow int64), and where each face
landed is the face table ``faces[p-1]``.  The face tables are the
incidence: ``signed_incidence`` writes (-1)^i at them, ``cup_operator``
follows them to front and back faces, and the local-system coboundaries
read each simplex's front edge from them, with no per-face lookup.  A
simplex named by vertex ids (``SimplicialComplex.index``, the edges of a
local system's holonomy) is found by ``np.searchsorted`` on level keys:
the index of the face without the last vertex, times V, plus that
vertex's rank, below MAX_MODEL_SIZE^2.  The orientation check reads the
face table of the tops.

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
so, and that no writable array shares, is kept without a copy: the
coboundaries of ``coboundary_matrices`` are written in their final dtype
and frozen where they are built, and so are the parity maps that
``twisted_differential`` adds a flux to, so none is copied again.
Non-finite entries are refused, and so are coboundary and Gram entries
whose nonzero modulus lies outside [1e-150, 1e150], where squaring them
leaves float64 (Grams can still scale a square out of range;
``torsion_engine`` refuses that).

Square-zero is checked once per complex.  A graded complex that is its
simplicial complex's own incidence reads it off the face tables, with
no product (``_faces_commute``); every other graded complex multiplies
its maps.  A flux twist of the former sums its check by degree block
(``_folded_residual``); every other Z2-graded complex multiplies its two
maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, Mapping, Sequence

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
    TorsionLabError,
    ValidationError,
)
from .spectral import GramFactor, _direct_sum, _gram_factor, _labels, _map_blocks

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


def _made_with(cls, known: Mapping[str, object], /, **fields):
    """``cls(**fields)`` with the private slots ``known`` filled before its
    ``__post_init__`` runs, which then takes them instead of finding them:
    facts about arrays that the caller has already established.  A plain
    constructor call or a ``dataclasses.replace`` copy starts without
    them."""
    made = object.__new__(cls)
    vars(made).update(known)
    made.__init__(**fields)
    return made


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

# (-1)^i, the sign of the i-th face of a simplex; within MAX_MODEL_SIZE a
# simplex has at most 13 vertices
_ALTERNATING = np.array([1, -1] * 7)
# row i lists 0..k-1 without i in its first k-1 columns, for every k <= 14
_DROP = np.arange(13) + (np.arange(13) >= np.arange(14)[:, None])
# [i, j] is True for i < j: the pairs of vertices of a simplex
_UPPER = np.triu(np.ones((14, 14), dtype=bool), 1)


def _integer(value, what: str, error: type[TorsionLabError] = ValidationError) -> int:
    """The package's one integer rule, for vertex ids and signs given to
    ``build_simplicial`` and for every integer read from a file
    (``serialize``): a Python or numpy integer, or a float with no
    fractional part.  A bool, any other float, a string or anything else
    is refused with ``error`` rather than read as a different number."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise error(f"{what} must be an integer, got {value!r}")


def _id_array(ids: list[int]) -> np.ndarray:
    """Python ints as int64, or as objects when one lies past int64."""
    try:
        return np.array(ids, dtype=np.int64)
    except OverflowError:
        return np.array(ids, dtype=object)


def _locate(sorted_ids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Position of each id in the increasing ``sorted_ids``, -1 where absent."""
    if sorted_ids.dtype != ids.dtype:
        sorted_ids, ids = sorted_ids.astype(object), ids.astype(object)
    pos = np.searchsorted(sorted_ids, ids)
    hit = sorted_ids[np.minimum(pos, len(sorted_ids) - 1)] == ids
    return np.where(hit, pos, -1)


def _distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position in ``key`` of one entry per distinct value, values
    increasing, and for each entry the place of its value among them."""
    order = key.argsort()
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    ordered = key[order]
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    at = np.empty(len(key), dtype=np.intp)
    at[order] = new.cumsum() - 1
    return order[new], at


def _sorted_rows(rows: np.ndarray, V: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an array of vertex ranks below V, in
    lexicographic order, and the place among them of each given row.

    Rows are compared by one integer key, their digits in base V; where
    the next digit could overflow int64 the keys so far are replaced by
    their places among themselves, which keeps the key below 2^62.
    """
    key, span = rows[:, 0], V
    for column in rows.T[1:]:
        if span * V > 2 ** 62:
            key, span = _distinct(key)[1], len(rows)
        key, span = key * V + column, span * V
    first, at = _distinct(key)
    return rows[first], at


def _first_repeat(inverse: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one; there must be one."""
    repeat = np.ones(len(inverse), dtype=bool)
    repeat[np.unique(inverse, return_index=True)[1]] = False
    return int(np.argmax(repeat))


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed simplicial complex on non-negative integer vertices.

    ``vertices`` holds the distinct vertex ids in increasing order (int64,
    or objects when an id lies past int64); a vertex's rank is its
    position there.  ``levels[p]`` is the (n_p, p+1) array of the
    p-simplices as increasing vertex ranks, rows in lexicographic order.
    ``faces[p]`` is the (n_{p+1}, p+2) array whose entry [s, i] is the
    index in ``levels[p]`` of (p+1)-simplex s without its i-th vertex.
    ``simplices[p]`` lists the p-simplices in the same order as strictly
    increasing tuples of vertex ids.  ``orientation`` optionally assigns a
    sign in {+1, -1} to each top-dimensional simplex, in list order.  All
    arrays are read-only.
    """

    vertices: np.ndarray
    levels: tuple[np.ndarray, ...]
    faces: tuple[np.ndarray, ...]
    orientation: tuple[int, ...] | None = None

    @property
    def dim(self) -> int:
        return len(self.levels) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.levels)

    @property
    def euler_characteristic(self) -> int:
        return sum((-1) ** p * n for p, n in enumerate(self.f_vector))

    @cached_property
    def simplices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        return tuple(tuple(map(tuple, self.vertices[level].tolist())) for level in self.levels)

    @cached_property
    def _keys(self) -> tuple[np.ndarray, ...]:
        """Per level, the increasing key of each simplex: a vertex's rank,
        else the index of the face without the last vertex times V plus
        that vertex's rank, below MAX_MODEL_SIZE^2."""
        V = len(self.vertices)
        return (np.arange(V),) + tuple(
            F[:, -1] * V + level[:, -1] for F, level in zip(self.faces, self.levels[1:])
        )

    def _lookup(self, p: int, ranks: np.ndarray) -> np.ndarray:
        """Index in ``levels[p]`` of each row of vertex ranks, -1 where the
        row is no p-simplex (a rank of -1 included)."""
        V = len(self.vertices)
        at = np.where((ranks < 0).any(axis=1), -1, ranks[:, 0])
        for j in range(1, p + 1):
            keys = self._keys[j]
            key = at * V + ranks[:, j]  # negative, so matching nothing, after a miss
            pos = np.searchsorted(keys, key)
            at = np.where(keys[np.minimum(pos, len(keys) - 1)] == key, pos, -1)
        return at

    def index(self, p: int, simplex: tuple[int, ...]) -> int:
        """Position of a simplex, a strictly increasing tuple of vertex
        ids, in ``simplices[p]``; KeyError when it is none of them."""
        ranks = _locate(self.vertices, _id_array([_integer(v, "vertex id") for v in simplex]))
        if 0 <= p <= self.dim and len(ranks) == p + 1:
            at = int(self._lookup(p, ranks[None])[0])
            if at >= 0:
                return at
        raise KeyError(simplex)

    def n(self, p: int) -> int:
        """Number of p-simplices; zero outside the supported range."""
        if 0 <= p <= self.dim:
            return len(self.levels[p])
        return 0

    def _front(self, d: int, p: int) -> np.ndarray:
        """Index of the front p-face (first p+1 vertices) of each d-simplex."""
        at = np.arange(self.n(d))
        for level in range(d, p, -1):
            at = self.faces[level - 1][at, -1]
        return at

    def _back(self, d: int, q: int) -> np.ndarray:
        """Index of the back q-face (last q+1 vertices) of each d-simplex."""
        at = np.arange(self.n(d))
        for level in range(d, q, -1):
            at = self.faces[level - 1][at, 0]
        return at


def _read_simplices(raw: list) -> tuple[np.ndarray, dict[int, tuple[np.ndarray, np.ndarray]]]:
    """Read simplices given as vertex tuples: (ids, by size).

    ``ids`` are the distinct vertex ids in increasing order (``_id_array``);
    ``by size`` maps each simplex size k to (where, rows): the positions
    of the size-k simplices in ``raw`` and their (n, k) vertex ranks,
    sorted within each row.  Refuses the first simplex, in the given
    order, with a vertex id outside the integer rule (``_integer``), no
    vertex, a negative id or a repeated vertex.  Ids that all are Python
    ints skip the per-id integer rule.
    """
    flat = list(itertools.chain.from_iterable(raw))
    if not set(map(type, flat)) <= {int}:
        for t, simplex in enumerate(raw):
            try:
                raw[t] = tuple(_integer(v, "vertex id") for v in simplex)
            except ValidationError:
                _read_simplices(raw[:t])  # an earlier simplex's refusal comes first
                raise
        flat = list(itertools.chain.from_iterable(raw))
    flat = _id_array(flat)
    first, ranks = _distinct(flat)
    ids = flat[first]
    sizes = np.fromiter(map(len, raw), dtype=np.intp, count=len(raw))
    if len(sizes) and (sizes == sizes[0]).all():
        by_size = {int(sizes[0]): (np.arange(len(raw)), ranks.reshape(len(raw), -1))}
    else:
        starts = np.cumsum(sizes) - sizes
        by_size = {}
        for k in sorted(set(sizes.tolist())):
            where = np.flatnonzero(sizes == k)
            by_size[k] = (where, ranks[starts[where, None] + np.arange(k)])
    bad = sizes == 0
    negative = np.zeros(len(raw), dtype=bool)
    for where, rows in by_size.values():
        rows.sort(axis=1)
        if rows.shape[1]:
            negative[where] = ids[rows[:, 0]] < 0
            bad[where] |= negative[where] | (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    if bad.any():
        t = int(np.argmax(bad))
        verts = tuple(raw[t])
        if not verts:
            raise ValidationError("empty simplex")
        if negative[t]:
            raise ValidationError(f"negative vertex id in {verts}")
        raise ValidationError(f"repeated vertex in simplex {verts}")
    return ids, by_size


def _read_signs(values: Iterable) -> list[int]:
    signs = list(values)
    if not set(map(type, signs)) <= {int}:
        signs = [_integer(s, "orientation sign", NotOriented) for s in signs]
    return signs


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
        Vertex tuples; order inside a tuple is ignored.  Vertex ids are
        non-negative integers under ``_integer``'s rule, of any size.
    orientation:
        Optional signs for the top simplices: either a mapping keyed by
        vertex tuple, naming each top once, or a sequence in input order.
        Requires uniform top dimension, and the signs must induce opposite
        orientations on every shared codimension-1 face.
    allow_mixed_dimension:
        Accept tops of different dimensions.  Off by default.

    The vertex ids are ranked, and the complex is closed level by level
    from the top down: the faces of each p-simplex without one vertex are
    sorted, with the (p-1)-dimensional tops, into the next level, and
    where each face landed is ``faces[p-1]``.  Every refusal names the
    first offender in the given order.
    """
    raw = [tuple(t) for t in top_simplices]
    ids, by_size = _read_simplices(raw)
    if not raw:
        raise ValidationError("need at least one top simplex")
    V = len(ids)
    tops: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # dim -> (rows, place of each given top)
    duplicates = []
    for k, (where, rows) in by_size.items():
        tops[k - 1] = _sorted_rows(rows, V)
        if len(tops[k - 1][0]) < len(where):
            duplicates.append(int(where[_first_repeat(tops[k - 1][1])]))
    if duplicates:
        raise DuplicateSimplex(f"top simplex {tuple(sorted(raw[min(duplicates)]))} supplied twice")
    if len(tops) > 1 and not allow_mixed_dimension:
        raise InconsistentDimension(
            f"top simplices of dimensions {sorted(tops)}; "
            "pass allow_mixed_dimension=True to accept"
        )

    # refuse from closed-form counts before enumerating faces: every top
    # and every vertex is a cell, and a top of k vertices closes to 2^k - 1
    # of them.  When the tops' faces, counted with repeats, could pass the
    # limit: a largest top T and any other top S close to at least
    # 2^|T| - 1 + 2^|S| - 2^|S & T| cells
    _refuse_oversize("simplicial complex", cells=len(raw))
    dim = max(tops)
    _refuse_oversize("simplicial complex", cells=max(V, 2 ** min(dim + 1, 64) - 1))
    if sum(len(rows) * (2 ** (p + 1) - 1) for p, (rows, _) in tops.items()) > MAX_MODEL_SIZE:
        inside = np.zeros(V, dtype=bool)
        inside[tops[dim][0][0]] = True
        others = max((2 ** (p + 1) - 2 ** inside[rows].sum(axis=1)).max() for p, (rows, _) in tops.items())
        _refuse_oversize("simplicial complex", cells=2 ** (dim + 1) - 1 + int(others))

    levels = [np.arange(V)[:, None]] + [None] * dim  # the vertices are all the ranks
    faces = [None] * dim
    level, cells = tops[dim][0], V
    for p in range(dim, 0, -1):
        levels[p] = level
        cells += len(level)
        _refuse_oversize("simplicial complex", cells=cells)
        if p == 1:
            faces[0] = level[:, ::-1].copy()
            break
        found = level[:, _DROP[:p + 1, :p]].reshape(-1, p)
        if p - 1 in tops:
            found = np.concatenate([found, tops[p - 1][0]])
        level, at = _sorted_rows(found, V)
        faces[p - 1] = at[:len(levels[p]) * (p + 1)].reshape(-1, p + 1)
    for a in (ids, *levels, *faces):
        a.setflags(write=False)
    K = SimplicialComplex(vertices=ids, levels=tuple(levels), faces=tuple(faces))
    if orientation is None:
        return K
    if len(tops) > 1:
        raise NotOriented("orientation requires uniform top dimension")
    if isinstance(orientation, Mapping):
        keys = [tuple(k) for k in orientation]
        key_ids, key_rows = _read_simplices(keys)
        given = _read_signs(orientation.values())
        if keys and set(key_rows) != {dim + 1}:
            raise NotOriented("orientation must cover exactly the top simplices")
        distinct, at = _sorted_rows(key_rows[dim + 1][1] if keys else levels[dim][:0], len(key_ids))
        if len(distinct) < len(keys):
            twice = tuple(sorted(keys[_first_repeat(at)]))
            raise NotOriented(f"orientation gives two signs for top simplex {twice}")
        distinct = _locate(ids, key_ids)[distinct]  # the ranks in K, -1 off it
        if distinct.shape != levels[dim].shape or (distinct != levels[dim]).any():
            raise NotOriented("orientation must cover exactly the top simplices")
    else:
        given = _read_signs(orientation)
        if len(given) != len(raw):
            raise NotOriented("orientation must give one sign per top simplex")
        at = tops[dim][1]  # reorder the given signs to the lexicographic top order
    if not set(given) <= {1, -1}:
        raise NotOriented("orientation signs must lie in {+1, -1}")
    signs = np.empty(len(given), dtype=np.int64)
    signs[at] = given
    _check_coherent(K, signs)
    object.__setattr__(K, "orientation", tuple(signs.tolist()))
    return K


def _check_coherent(K: SimplicialComplex, signs: np.ndarray) -> None:
    """Each codimension-1 face of the tops must lie in at most two, with
    cancelling induced signs s (-1)^i; the first offender is the face
    met first, walking the tops in order and each top's faces by i."""
    d = K.dim
    F = K.faces[d - 1].ravel() if d else np.zeros(len(signs), dtype=np.intp)
    count = np.bincount(F)
    total = np.bincount(F, weights=(signs[:, None] * _ALTERNATING[:d + 1]).ravel())
    bad = (count > 2) | ((count == 2) & (total != 0))
    if not bad.any():
        return
    f = F[np.argmax(bad[F])]
    face = tuple(K.vertices[K.levels[d - 1][f]].tolist()) if d else ()
    if count[f] > 2:
        raise NotOriented(f"face {face} shared by {count[f]} top simplices")
    raise NotOriented(f"incoherent orientation across face {face}")


def _is_connected(K: SimplicialComplex) -> bool:
    """True when K's edges join all its vertices: every vertex is
    labelled 0 through the edge face table (``spectral._labels``)."""
    if K.dim == 0:
        return len(K.vertices) <= 1
    F = K.faces[0]
    return not _labels(F[:, 1], F[:, 0], len(K.vertices)).any()


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LocalSystem:
    """Unitary local system given by edge holonomies.

    ``holonomy`` maps a sorted edge (a, b) with a < b, vertex ids under
    the integer rule (``_integer``), to the transport
    matrix from the fiber at a to the fiber at b, and b to a by its
    adjoint.  Missing edges default to the identity.
    """

    rank: int
    holonomy: Mapping[tuple[int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValidationError("local system rank must be >= 1")
        frozen = {}
        for edge, mat in self.holonomy.items():
            a, b = (_integer(v, "holonomy edge vertex") for v in edge)
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


def validate_local_system(K: SimplicialComplex, L: LocalSystem) -> None:
    """Check unitarity on every edge and flatness on every triangle, to a
    relative 1e-12."""
    _edge_transports(K, L)


def _edge_transports(K: SimplicialComplex, L: LocalSystem) -> np.ndarray:
    """(n_1, m, m) array of the transports along K's edges, from the lower
    vertex to the higher: the holonomy where L gives one, else the
    identity; holonomies on pairs that are no edge of K are not read.
    Refuses a holonomy that is not unitary, then the first triangle
    (a, b, c) on which U(b, c) U(a, b) != U(a, c) (``validate_local_system``)."""
    m = L.rank
    eye = np.eye(m)
    for edge, U in L.holonomy.items():
        if _norm(U.conj().T @ U - eye) > 1e-12 * m:
            raise NonFlatLocalSystem(f"holonomy on edge {edge} is not unitary")
    E = np.zeros((K.n(1), m, m), dtype=np.result_type(np.float64, *L.holonomy.values()))
    E[:, range(m), range(m)] = 1.0
    if K.dim >= 1 and L.holonomy:
        ends = _locate(K.vertices, _id_array(list(itertools.chain.from_iterable(L.holonomy))))
        at = K._lookup(1, ends.reshape(-1, 2))
        E[at[at >= 0]] = np.array(list(L.holonomy.values()))[at >= 0]
    if K.dim >= 2:
        # triangle (a, b, c) without vertex 0, 1, 2 is edge bc, ac, ab
        bc, ac, ab = K.faces[1].T
        lhs, rhs = E[bc] @ E[ab], E[ac]
        scale = np.maximum(1.0, np.sqrt(np.sum(np.abs(rhs) ** 2, axis=(1, 2))))
        bad = np.sqrt(np.sum(np.abs(lhs - rhs) ** 2, axis=(1, 2))) > 1e-12 * scale
        if bad.any():
            triangle = tuple(K.vertices[K.levels[2][np.argmax(bad)]].tolist())
            raise NonFlatLocalSystem(f"holonomy fails flatness on triangle {triangle}")
    return E


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
        for p, resid in enumerate(self._square_residuals):
            a, b = cob[p + 1], cob[p]
            # an exact zero, as the face tables give, needs no norms
            if resid and resid > _SQUARE_ZERO_TOL * (1.0 + _norm(a) * _norm(b)):
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
    def _own_incidence(self) -> bool:
        """Whether C is the untwisted complex of its simplicial complex K:
        the dimensions are K's f-vector and every delta_p is real, holds
        (-1)^i at each (p+1)-simplex's i-th face (``K.faces[p]``) and no
        other nonzero.  Decided once, by reading each map, when the
        complex is built; ``with_gram`` copies take the verdict along."""
        K = self.simplicial
        if K is None or self.dims != K.f_vector:
            return False
        for F, d in zip(K.faces, self.coboundary):
            if d.dtype.kind != "f" or np.count_nonzero(d != 0) != F.size:
                return False
            if not (d[np.arange(len(F))[:, None], F] == _ALTERNATING[:F.shape[1]]).all():
                return False
        return True

    @cached_property
    def _square_residuals(self) -> tuple[float, ...]:
        """Per degree p, the Frobenius norm of delta_{p+1} delta_p, found
        when the complex is built and kept for the twisted check of
        ``TwistedComplex``.  Maps that are their complex's own incidence
        (``_own_incidence``) read 0.0 wherever the face tables commute
        (``_faces_commute``), since every term of the product then
        cancels exactly; every other residual is formed from the product
        (``_product_norm``), one component of delta_p at a time where it
        splits."""
        cob = self.coboundary
        own = self._own_incidence
        return tuple(
            0.0 if own and _faces_commute(self.simplicial, p)
            else _product_norm(cob[p + 1], cob[p], self._components[p])
            for p in range(len(cob) - 1)
        )

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
        """The same maps with the given Grams; the copy keeps the maps'
        incidence verdict and square-zero residuals."""
        return _made_with(
            GradedCochainComplex,
            {name: getattr(self, name) for name in ("_own_incidence", "_square_residuals")},
            dims=self.dims,
            coboundary=self.coboundary,
            gram=tuple(gram),
            simplicial=self.simplicial,
            local_rank=self.local_rank,
        )


def _faces_commute(K: SimplicialComplex, p: int) -> bool:
    """Whether dropping vertex j and then vertex i of each (p+2)-simplex
    of K gives the face that dropping vertex i and then vertex j - 1
    gives, for every i < j: ``faces[p][faces[p+1][:, j], i] ==
    faces[p][faces[p+1][:, i], j-1]``.  The two paths carry the signs
    (-1)^(i+j) and (-1)^(i+j-1), and the pairing is a bijection of the
    terms of delta_{p+1} delta_p over K's incidence, so where it holds
    that product is exactly zero."""
    twice = K.faces[p][K.faces[p + 1]]  # [s, j, i]: face i of face j of s
    i, j = np.nonzero(_UPPER[:p + 3, :p + 3])
    return bool((twice[:, j, i] == twice[:, i, j - 1]).all())


def _incidence(K: SimplicialComplex, p: int, dtype) -> np.ndarray:
    rows, cols = K.n(p + 1), K.n(p)
    out = np.zeros((rows, cols), dtype=dtype)
    if rows and cols:
        F = K.faces[p]
        out[np.arange(rows)[:, None], F] = _ALTERNATING[:p + 2]
    return out


def signed_incidence(K: SimplicialComplex, p: int) -> np.ndarray:
    """Integer matrix of delta_p for trivial coefficients.

    Shape (n_{p+1}, n_p); entry is (-1)^i when the column simplex is the
    i-th face of the row simplex (``K.faces[p]``).
    """
    return _incidence(K, p, np.int64)


def coboundary_matrices(
    K: SimplicialComplex,
    local_system: LocalSystem | None = None,
) -> GradedCochainComplex:
    """Assemble the cochain complex of K, optionally twisted by a flat
    unitary local system.

    The untwisted matrices are real.  Each matrix is written in its final
    dtype and frozen here, so ``GradedCochainComplex`` checks it without a
    copy.  Square-zero is checked once, by ``GradedCochainComplex``:
    within ``MAX_MODEL_SIZE`` its bound is far below 1, so it catches
    every nonzero integer residual.  A complex with a local system of rank
    m has m x cells degrees of freedom, refused past ``MAX_MODEL_SIZE``
    before anything is built.
    """
    if local_system is None:
        deltas = [_incidence(K, p, np.float64) for p in range(K.dim)]
        for d in deltas:
            d.setflags(write=False)
        return GradedCochainComplex(
            dims=K.f_vector,
            coboundary=tuple(deltas),
            simplicial=K,
        )

    _refuse_oversize("complex with a local system", cells=local_system.rank * sum(K.f_vector))
    E = _edge_transports(K, local_system)  # validated
    m = local_system.rank
    dims = tuple(n * m for n in K.f_vector)
    diag = np.arange(m)
    deltas = []
    for p in range(K.dim):
        rows, cols = K.n(p + 1), K.n(p)
        F = K.faces[p]
        block = np.zeros((rows, m, cols, m), dtype=E.dtype)
        # (-1)^i I_m at face i >= 1; at face 0, whose value lives over the
        # simplex's second vertex, the transport back to the first,
        # U(v_0, v_1)* from the simplex's front edge
        block[np.arange(rows)[:, None, None], diag, F[:, 1:, None], diag] = _ALTERNATING[1:p + 2, None]
        block[np.arange(rows), :, F[:, 0], :] = E[K._front(p + 1, 1)].conj().transpose(0, 2, 1)
        block += 0.0  # no -0.0, from a conjugated imaginary part or a holonomy
        block.setflags(write=False)
        deltas.append(block.reshape(rows * m, cols * m))
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
    """Matrix of b -> h cup b from degree q into degree q + deg h: row r
    holds h on the front p-face of d-simplex r, in the column of its back
    q-face."""
    _check_cochain_on(K, h)
    p = h.degree
    d = p + q
    if d > K.dim:
        return np.zeros((0, K.n(q)))
    hv = h.coefficients
    out = np.zeros((K.n(d), K.n(q)), dtype=hv.dtype)
    out[np.arange(K.n(d)), K._back(d, q)] += hv[K._front(d, p)]
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

def _parity_offsets(dims: Sequence[int]) -> tuple[list[int], list[int]]:
    """The Z2 layout of a graded space: the row of its parity where each
    degree starts, degrees of one parity in increasing order, and the
    (even, odd) sizes."""
    offset, size = [], [0, 0]
    for q, n in enumerate(dims):
        offset.append(size[q % 2])
        size[q % 2] += n
    return offset, size


def _degree_rows(dims: Sequence[int], degrees) -> np.ndarray:
    """The rows of the given degrees, all of one parity, in its layout."""
    offset, _ = _parity_offsets(dims)
    return np.concatenate([np.zeros(0, dtype=np.intp)] + [
        np.arange(offset[q], offset[q] + dims[q]) for q in degrees
    ])


def fold(
    dims: Sequence[int],
    ops: Sequence[np.ndarray],
    shift: int,
    base: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lay a degree-homogeneous operator family out on the Z2 grading.

    ``ops[q]`` maps degree q to degree q+shift and must have shape
    (dims[q+shift], dims[q]); blocks whose target lies past the top
    degree are skipped.  Returns (from_even, from_odd): the operator on
    the direct sum of the even degrees and on that of the odd degrees,
    each into the degrees of the shifted parity, every direct sum ordered
    by increasing degree.  With ``base``, a (from_even, from_odd) pair of
    the same layout, the blocks are added to a copy of it, in the dtype
    of the sum, instead of to zeros.  This is the one place the parity
    layout is computed (``_parity_offsets``).
    """
    offset, size = _parity_offsets(dims)
    dtype = np.result_type(np.float64, *ops, *(base or ()))
    if base is None:
        out = tuple(np.zeros((size[(s + shift) % 2], size[s]), dtype=dtype) for s in (0, 1))
    else:
        out = tuple(np.array(b, dtype=dtype) for b in base)
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

    The total differential must square to zero (``FluxNotNilpotent``):
    the Frobenius norms of d_odd d_even and d_even d_odd must stay below
    1e-12 (1 + ||d_even|| ||d_odd||).  A complex that
    ``twisted_differential`` folded from the own incidence of a
    simplicial complex (``GradedCochainComplex._own_incidence``) keeps,
    in ``_folded``, that graded complex C and the flux degree blocks
    q -> q + deg h it added; its products are summed by degree block
    (``_folded_residual``), and ``torsion_engine`` ranks it by block.
    Every other complex (one built by hand, a ``dataclasses.replace``
    copy, every invariant complex, a twist of a bare or local-system
    complex) forms the two products, one bipartite component at a time
    where a map splits; for an invariant complex that check is the
    bundle-data validation behind ``InvalidFlux``.
    """

    # (C, flux blocks), filled in by twisted_differential before
    # __post_init__ runs; None for every other complex
    _folded: ClassVar[tuple[GradedCochainComplex, tuple[tuple[int, int], ...]] | None] = None

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
        if self._folded is None:
            resid = max(_product_norm(do, de, even), _product_norm(de, do, odd))
        else:
            resid = _folded_residual((de, do), *self._folded)
        if resid > _SQUARE_ZERO_TOL * scale:
            raise FluxNotNilpotent("total differential does not square to zero")


def _folded_residual(maps, C: GradedCochainComplex, flux: tuple[tuple[int, int], ...]) -> float:
    """max(||d_odd d_even||, ||d_even d_odd||), summed by degree block, for
    maps folded from the graded complex C with the flux blocks q -> q + d.

    The total differential is delta + sum_d h_d with deg h_d = d odd, so
    its square only joins degree c to c + 2 (delta delta), to c + d + 1
    (delta h_d + h_d delta, which is (delta h_d) cup by Leibniz, zero for
    a closed flux) and to c + d + d' (h_d h_d', which is (h_d cup h_d')
    cup by associativity, zero when the cup square vanishes).  Every
    other block of the square is zero with no arithmetic.  The block of
    shift 2 is C's own delta_{c+1} delta_c, whose norm C kept when it was
    built (``_square_residuals``).  Each block of a flux shift is one
    product of the whole row band by the whole column band, since two
    products can land on one block and cancel there (delta h_3 + h_3
    delta and h_5 on shift 6 from c, say): its norm is taken after the
    sum.  A top-degree flux has no block of shift d + 1 or 2d inside the
    grading, so nothing is multiplied.  The square of the maps from the
    even degrees collects the blocks from even c, that of the maps from
    the odd degrees those from odd c."""
    dims = C.dims
    offset, _ = _parity_offsets(dims)
    degrees = {t - q for q, t in flux}
    shifts = {d + 1 for d in degrees} | {d + e for d in degrees for e in degrees}
    norms: tuple[list[float], list[float]] = ([], [])
    for c, resid in enumerate(C._square_residuals):
        norms[c % 2].append(resid)
    for shift in sorted(shifts):
        for c in range(len(dims) - shift):
            t = c + shift
            a, b = maps[c % 2], maps[(c + 1) % 2]
            block = b[offset[t]:offset[t] + dims[t]] @ a[:, offset[c]:offset[c] + dims[c]]
            norms[c % 2].append(_norm(block))
    return max(math.hypot(*n) for n in norms)


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

    A component of degree d adds the blocks q -> q + d that hold a
    nonzero.  When C is its simplicial complex's own incidence
    (``GradedCochainComplex._own_incidence``) the result keeps C and
    those blocks (``TwistedComplex._folded``): its square-zero check is
    then summed by degree block, shift 2 read from C's kept residuals
    and only the flux shifts d + 1 (Leibniz) and d + d' (associativity)
    multiplied (``_folded_residual``), and ``torsion_engine`` ranks its
    maps by block.  A twist of a bare or local-system complex keeps the
    dense check and whole ranks.
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
    blocks = []  # the flux degree blocks (q, q + deg h) that hold a nonzero
    for h in nontrivial:
        if K is not None:
            ops = [cup_operator(K, h, q) for q in range(top + 1 - h.degree)]
            blocks += [(q, q + h.degree) for q, op in enumerate(ops) if op.any()]
        elif dims[0] > 1:
            raise FluxError("flux action undetermined: bare complex with dim C^0 != 1")
        else:
            # minimal-model multiplication: unit law in degree 0, zero above
            ops = [h.coefficients.reshape(-1, 1)] if dims[0] else []
        # the flux blocks (degree q to q + h.degree >= q + 3) never meet the
        # coboundary's (q to q + 1): adding them to one copy of the layout,
        # in the final dtype, gives the bits of the mixed-dtype sum
        d_even, d_odd = fold(dims, ops, h.degree, base=(d_even, d_odd))
    for a in (d_even, d_odd):  # new sums, or the frozen layout without flux
        a.setflags(write=False)

    gram_even, gram_odd = grams or (None, None)
    fields = dict(
        even_dim=d_even.shape[1],
        odd_dim=d_odd.shape[1],
        d_even=d_even,
        d_odd=d_odd,
        gram_even=gram_even,
        gram_odd=gram_odd,
    )
    if not C._own_incidence:
        return TwistedComplex(**fields)
    return _made_with(TwistedComplex, {"_folded": (C, tuple(blocks))}, **fields)
