"""Per-simplex reference for the simplicial layer, the oracle of
``test_simplicial_arrays``.

The loops are the straightforward ones: tuples in sets and dicts, one
lookup per face.  They share nothing with ``chain_models`` but the
exception types, so an entry the array assembly gets wrong, or a refusal
it words differently, shows up as a difference.
"""

from __future__ import annotations

import itertools

import numpy as np

from torsionlab.chain_models import MAX_MODEL_SIZE
from torsionlab.errors import (
    DuplicateSimplex,
    InconsistentDimension,
    NonFlatLocalSystem,
    NotOriented,
    ValidationError,
)


def _normalize(raw) -> tuple[int, ...]:
    verts = tuple(raw)
    if not verts:
        raise ValidationError("empty simplex")
    if any(v < 0 for v in verts):
        raise ValidationError(f"negative vertex id in {verts}")
    if len(set(verts)) != len(verts):
        raise ValidationError(f"repeated vertex in simplex {verts}")
    return tuple(sorted(verts))


def _too_large(cells: int) -> None:
    if cells > MAX_MODEL_SIZE:
        raise ValidationError(
            f"simplicial complex is too large to build: over {MAX_MODEL_SIZE} cells"
        )


def build(top_simplices, orientation=None, allow_mixed_dimension=False):
    """(simplices, signs) of the face closure, signs None without an
    orientation; every ``build_simplicial`` refusal, worded the same."""
    tops = [_normalize(t) for t in top_simplices]
    if not tops:
        raise ValidationError("need at least one top simplex")
    seen = set()
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
    _too_large(len(tops))
    dim = max(top_dims)
    _too_large(2 ** (dim + 1) - 1)
    levels = [set() for _ in range(dim + 1)]
    for t in tops:
        for p in range(len(t)):
            levels[p].update(itertools.combinations(t, p + 1))
        _too_large(sum(map(len, levels)))
    simplices = tuple(tuple(sorted(level)) for level in levels)
    if orientation is None:
        return simplices, None
    if len(top_dims) > 1:
        raise NotOriented("orientation requires uniform top dimension")
    if isinstance(orientation, dict):
        keys = [_normalize(k) for k in orientation]
        if any(len(k) != dim + 1 for k in keys):
            raise NotOriented("orientation must cover exactly the top simplices")
        table = {}
        for k, v in zip(keys, orientation.values()):
            if k in table:
                raise NotOriented(f"orientation gives two signs for top simplex {k}")
            table[k] = v
        if set(table) != set(tops):
            raise NotOriented("orientation must cover exactly the top simplices")
        signs = tuple(table[t] for t in simplices[dim])
    else:
        listed = tuple(orientation)
        if len(listed) != len(tops):
            raise NotOriented("orientation must give one sign per top simplex")
        order = {t: i for i, t in enumerate(tops)}
        signs = tuple(listed[order[t]] for t in simplices[dim])
    if any(s not in (-1, 1) for s in signs):
        raise NotOriented("orientation signs must lie in {+1, -1}")
    induced = {}
    for t, s in zip(simplices[dim], signs):
        for i in range(len(t)):
            induced.setdefault(t[:i] + t[i + 1:], []).append(s * (-1) ** i)
    for face, contribs in induced.items():
        if len(contribs) > 2:
            raise NotOriented(f"face {face} shared by {len(contribs)} top simplices")
        if len(contribs) == 2 and sum(contribs) != 0:
            raise NotOriented(f"incoherent orientation across face {face}")
    return simplices, signs


def _index(simplices):
    return [{s: i for i, s in enumerate(level)} for level in simplices]


def incidence(simplices, p: int) -> np.ndarray:
    n = lambda q: len(simplices[q]) if 0 <= q < len(simplices) else 0  # noqa: E731
    out = np.zeros((n(p + 1), n(p)), dtype=np.int64)
    if out.size:
        index = _index(simplices)[p]
        for r, simplex in enumerate(simplices[p + 1]):
            for i in range(len(simplex)):
                out[r, index[simplex[:i] + simplex[i + 1:]]] += (-1) ** i
    return out


def cup(simplices, hv: np.ndarray, p: int, q: int) -> np.ndarray:
    d = p + q
    if d >= len(simplices):
        return np.zeros((0, len(simplices[q]) if q < len(simplices) else 0))
    index = _index(simplices)
    out = np.zeros((len(simplices[d]), len(simplices[q])), dtype=hv.dtype)
    for r, simplex in enumerate(simplices[d]):
        out[r, index[q][simplex[p:]]] += hv[index[p][simplex[:p + 1]]]
    return out


def local_coboundaries(simplices, holonomy: dict, rank: int) -> list[np.ndarray]:
    """The twisted coboundaries, after the unitarity and flatness checks."""

    def transport(a, b):
        if a < b:
            U = holonomy.get((a, b))
            return np.eye(rank) if U is None else U
        U = holonomy.get((b, a))
        return np.eye(rank) if U is None else U.conj().T

    eye = np.eye(rank)
    for edge, U in holonomy.items():
        if np.linalg.norm(U.conj().T @ U - eye) > 1e-12 * rank:
            raise NonFlatLocalSystem(f"holonomy on edge {edge} is not unitary")
    if len(simplices) > 2:
        for a, b, c in simplices[2]:
            lhs, rhs = transport(b, c) @ transport(a, b), transport(a, c)
            if np.linalg.norm(lhs - rhs) > 1e-12 * max(1.0, np.linalg.norm(rhs)):
                raise NonFlatLocalSystem(f"holonomy fails flatness on triangle {(a, b, c)}")
    index = _index(simplices)
    dtype = np.result_type(np.float64, *holonomy.values())
    out = []
    for p in range(len(simplices) - 1):
        block = np.kron(incidence(simplices, p), np.eye(rank, dtype=dtype))
        for r, simplex in enumerate(simplices[p + 1]):
            c = index[p][simplex[1:]]
            block[r * rank:(r + 1) * rank, c * rank:(c + 1) * rank] = transport(simplex[1], simplex[0])
        block += 0.0
        out.append(block)
    return out
