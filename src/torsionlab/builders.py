"""Named example models: triangulations, small twisted complexes and
circle-bundle models.

Each builder returns a SimplicialComplex, GradedCochainComplex or
BundleData.  ``from_expression`` parses the compact call syntax used on
the command line, e.g. ``cycle(12)``, ``lens(5,1,2)`` or ``hopf(1,2)``.
"""

from __future__ import annotations

import cmath
import math
import re

import numpy as np

from .chain_models import (
    GradedCochainComplex,
    SimplicialComplex,
    _refuse_oversize,
    build_simplicial,
)
from .circle_bundle import hopf, minimal_model, random_bundle
from .errors import UnknownBuilder, ValidationError

__all__ = [
    "cycle",
    "simplex_boundary",
    "lens",
    "minimal_sphere",
    "CATALOG",
    "from_expression",
]


def cycle(n: int) -> SimplicialComplex:
    """Triangulated circle with n vertices and n edges, coherently oriented."""
    if n < 3:
        raise ValidationError(f"a triangulated circle needs >= 3 vertices, got {n}")
    _refuse_oversize(f"cycle({n})", cells=2 * n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    orientation = {e: 1 for e in edges[:-1]}
    # closing edge runs backwards so the induced vertex signs cancel
    orientation[(0, n - 1)] = -1
    return build_simplicial(edges, orientation)


def simplex_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex: a triangulated (n-1)-sphere."""
    if n < 2:
        raise ValidationError(f"need n >= 2, got {n}")
    # 2^(n+1) - 2 cells; the capped exponent keeps a huge n cheap and
    # still counts past the limit
    _refuse_oversize(f"simplex_boundary({n})", cells=2 ** (min(n, 64) + 1) - 2)
    verts = tuple(range(n + 1))
    faces = [verts[:i] + verts[i + 1:] for i in range(n + 1)]
    orientation = {f: (-1) ** i for i, f in enumerate(faces)}
    return build_simplicial(faces, orientation)


def minimal_sphere(n: int) -> GradedCochainComplex:
    """Minimal cochain model of the n-sphere: one class in degrees 0 and n."""
    if n < 1:
        raise ValidationError(f"sphere dimension must be >= 1, got {n}")
    _refuse_oversize(f"minimal_sphere({n})", degrees=n + 1)
    return minimal_model(1 if p in (0, n) else 0 for p in range(n + 1))


def lens(p: int, q: int, k: int) -> GradedCochainComplex:
    """Cellular cochain complex of the lens space L(p, q) with coefficients
    twisted by the character sending the deck generator to exp(2 pi i k/p).

    One cell per dimension 0..3.  For k not divisible by p the complex is
    acyclic and the torsion scalar is |zeta^k - 1|^2 with zeta = exp(2 pi i/p);
    the middle coboundary 1 + zeta^k + ... + zeta^((p-1)k) vanishes exactly
    and is written as an exact zero so no spurious eigenvalue survives.
    """
    if p < 2:
        raise ValidationError(f"lens order must be >= 2, got {p}")
    if q % p == 0 or np.gcd(q, p) != 1:
        raise ValidationError(f"lens parameter q={q} must be a unit mod {p}")
    zeta_k = cmath.exp(2j * cmath.pi * k / p)
    qbar = pow(q, -1, p)
    if k % p == 0:
        d0 = 0.0
        d1 = float(p)
        d2 = 0.0
    else:
        d0 = zeta_k - 1.0
        d1 = 0.0
        d2 = cmath.exp(2j * cmath.pi * (k * qbar) / p) - 1.0
    cob = (
        np.array([[d0]], dtype=np.complex128),
        np.array([[d1]], dtype=np.complex128),
        np.array([[d2]], dtype=np.complex128),
    )
    return GradedCochainComplex(dims=(1, 1, 1, 1), coboundary=cob)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


# name -> (builder, parser of every argument)
CATALOG = {
    "cycle": (cycle, int),
    "simplex_boundary": (simplex_boundary, int),
    "lens": (lens, int),
    "minimal_sphere": (minimal_sphere, int),
    "hopf": (hopf, _finite),
    "random": (random_bundle, int),
    "random_bundle": (random_bundle, int),
}

_CALL = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(([^)]*)\)\s*$")


def from_expression(text: str):
    """Build a model from call syntax like ``lens(5,1,2)``.

    The builder name must be in CATALOG.  Arguments must be integers,
    except for ``hopf``, whose arguments are finite real numbers.
    """
    m = _CALL.match(text)
    if not m:
        raise UnknownBuilder(
            f"cannot parse model expression {text!r}; expected name(arg, ...)"
        )
    name, argtext = m.group(1), m.group(2)
    if name not in CATALOG:
        known = ", ".join(sorted(CATALOG))
        raise UnknownBuilder(f"unknown model {name!r}; known models: {known}")
    fn, parse = CATALOG[name]
    args = []
    for piece in argtext.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            args.append(parse(piece))
        except ValueError as exc:
            kind = "integers" if parse is int else "finite numbers"
            raise UnknownBuilder(f"{name} arguments must be {kind}, got {piece!r}") from exc
    try:
        return fn(*args)
    except (TypeError, OverflowError) as exc:
        raise UnknownBuilder(f"bad arguments for {name}: {exc}") from exc
