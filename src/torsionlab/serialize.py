"""JSON round-tripping for models, bundles, and reports.

Complex matrix entries are stored as [re, im] pairs.  ``canonical_bytes``
fixes key order and separators so equal payloads hash identically, and
``digest`` is the sha256 of that encoding.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .chain_models import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    SimplicialComplex,
    build_simplicial,
)
from .chain_models import _integer as _integer_rule
from .circle_bundle import BundleData
from .errors import ParseError

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "encode_complex",
    "encode_bundle",
    "encode_cochain",
    "decode_cochain",
    "decode_model",
    "canonical_bytes",
    "digest",
    "load_json_file",
    "dump_json_file",
]

COMPLEX_SCHEMA = "complex.v1"
BUNDLE_SCHEMA = "bundle.v1"
COCHAIN_SCHEMA = "cochain.v1"
REPORT_SCHEMA = "report.v1"


def matrix_to_json(m: np.ndarray) -> list:
    # a complex128 entry is its [re, im] pair of float64s in memory
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_from_json(rows, shape=None) -> np.ndarray:
    """Matrix of [re, im] rows; ParseError unless it has ``shape`` when
    one is given.  An empty list is a matrix with no rows."""
    try:
        out = np.array(
            [[complex(entry[0], entry[1]) for entry in row] for row in rows],
            dtype=np.complex128,
        )
    except (TypeError, LookupError, ValueError) as exc:
        raise ParseError(f"malformed complex matrix: {exc}") from exc
    if out.ndim == 1:  # [] holds no row to give the column count
        out = out.reshape(0, shape[1] if shape is not None else 0)
    if shape is not None and out.shape != tuple(shape):
        raise ParseError(f"matrix has shape {out.shape}, expected {tuple(shape)}")
    return out


def _maximal_simplices(K: SimplicialComplex) -> list[tuple[int, ...]]:
    """The simplices that are no face of another, level by level."""
    out = []
    for p, level in enumerate(K.simplices):
        covered = np.zeros(len(level), dtype=bool)
        if p < K.dim:
            covered[K.faces[p]] = True
        out.extend(itertools.compress(level, ~covered))
    return out


def _encode_simplicial(K: SimplicialComplex) -> dict:
    tops = _maximal_simplices(K)
    payload: dict = {
        "schema": COMPLEX_SCHEMA,
        "kind": "simplicial",
        "top_simplices": [list(s) for s in tops],
    }
    if K.orientation is not None and all(len(s) == K.dim + 1 for s in tops):
        payload["orientation"] = list(K.orientation)  # the tops are the top level, in order
    return payload


def _encode_local_system(ls: LocalSystem) -> dict:
    return {
        "rank": ls.rank,
        "holonomy": [
            {"edge": [a, b], "matrix": matrix_to_json(m)}
            for (a, b), m in sorted(ls.holonomy.items())
        ],
    }


def _encode_cochain_complex(C: GradedCochainComplex) -> dict:
    payload: dict = {
        "schema": COMPLEX_SCHEMA,
        "kind": "cochain",
        "dims": list(C.dims),
        "coboundary": [matrix_to_json(C.delta(p)) for p in range(C.top)],
    }
    if C.gram is not None:
        payload["gram"] = [matrix_to_json(g) for g in C.gram]
    return payload


def _is_plain_simplicial(C: GradedCochainComplex) -> bool:
    """True when C is exactly the untwisted, identity-Gram cochain complex
    of its simplicial backing (``GradedCochainComplex._own_incidence``),
    so the simplicial form loses nothing."""
    return C.gram is None and C._own_incidence


def encode_complex(model, local_system: LocalSystem | None = None) -> dict:
    if isinstance(model, SimplicialComplex):
        payload = _encode_simplicial(model)
        if local_system is not None:
            payload["local_system"] = _encode_local_system(local_system)
        return payload
    if isinstance(model, GradedCochainComplex):
        if _is_plain_simplicial(model):
            return _encode_simplicial(model.simplicial)
        return _encode_cochain_complex(model)
    raise ParseError(f"cannot encode object of type {type(model).__name__}")


def _ops_to_json(ops: tuple[np.ndarray, ...]) -> list:
    return [matrix_to_json(m) for m in ops]


def encode_bundle(b: BundleData) -> dict:
    return {
        "schema": BUNDLE_SCHEMA,
        "base": _encode_cochain_complex(b.base),
        "f_op": _ops_to_json(b.f_op),
        "h2_op": _ops_to_json(b.h2_op),
        "h3_op": _ops_to_json(b.h3_op),
        "radius": float(b.radius),
    }


def _require(payload: dict, key: str):
    if key not in payload:
        raise ParseError(f"missing required key {key!r}")
    return payload[key]


def _integer(value, what: str) -> int:
    """An integer read from JSON under the package's one integer rule
    (``chain_models._integer``): an int, or a float with no fractional
    part.  Anything else, a bool or a string included, is a ParseError
    rather than a silently different model."""
    return _integer_rule(value, what, ParseError)


def _decode_local_system(payload: dict) -> LocalSystem:
    rank = _integer(_require(payload, "rank"), "local system rank")
    holonomy = {}
    for item in _require(payload, "holonomy"):
        a, b = (_integer(v, "holonomy edge vertex") for v in _require(item, "edge"))
        holonomy[(a, b)] = matrix_from_json(_require(item, "matrix"), (rank, rank))
    return LocalSystem(rank=rank, holonomy=holonomy)


def _decode_simplicial(payload: dict):
    tops = [
        tuple(_integer(v, "vertex id") for v in s) for s in _require(payload, "top_simplices")
    ]
    orientation = None
    if payload.get("orientation") is not None:
        signs = payload["orientation"]
        if len(signs) != len(tops):
            raise ParseError("orientation list does not match top_simplices")
        orientation = {
            tuple(sorted(s)): _integer(e, "orientation sign") for s, e in zip(tops, signs)
        }
    mixed = len({len(s) for s in tops}) > 1
    K = build_simplicial(tops, orientation, allow_mixed_dimension=mixed)
    if payload.get("local_system") is not None:
        return K, _decode_local_system(payload["local_system"])
    return K, None


def _decode_cochain_complex(payload: dict) -> GradedCochainComplex:
    dims = tuple(_integer(n, "dimension") for n in _require(payload, "dims"))
    cob_json = _require(payload, "coboundary")
    if len(cob_json) != max(len(dims) - 1, 0):
        raise ParseError(
            f"expected {len(dims) - 1} coboundary blocks, got {len(cob_json)}"
        )
    cob = tuple(
        matrix_from_json(rows, (dims[p + 1], dims[p]))
        for p, rows in enumerate(cob_json)
    )
    gram = None
    if payload.get("gram") is not None:
        gram_json = payload["gram"]
        if len(gram_json) != len(dims):
            raise ParseError("gram list must have one block per degree")
        gram = tuple(
            matrix_from_json(rows, (n, n)) for n, rows in zip(dims, gram_json)
        )
    return GradedCochainComplex(dims=dims, coboundary=cob, gram=gram)


def _decode_bundle(payload: dict) -> BundleData:
    base = _decode_cochain_complex(_require(payload, "base"))
    dims = base.dims

    def ops(key: str, shift: int):
        raw = payload.get(key)
        if raw is None:
            return None
        blocks = {}
        for q, rows in enumerate(raw):
            rows_n = dims[q + shift] if q + shift < len(dims) else 0
            blocks[q] = matrix_from_json(rows, (rows_n, dims[q]))
        return blocks

    return BundleData(
        base=base,
        f_op=ops("f_op", 2),
        h2_op=ops("h2_op", 2),
        h3_op=ops("h3_op", 3),
        radius=float(_require(payload, "radius")),
    )


def encode_cochain(c) -> dict:
    return {
        "schema": COCHAIN_SCHEMA,
        "degree": int(c.degree),
        "coefficients": [
            [float(z.real), float(z.imag)] for z in np.asarray(c.coefficients)
        ],
    }


def decode_cochain(payload: dict):
    degree = _integer(_require(payload, "degree"), "cochain degree")
    try:
        coeffs = np.array(
            [complex(e[0], e[1]) for e in _require(payload, "coefficients")],
            dtype=np.complex128,
        )
    except (TypeError, LookupError, ValueError) as exc:
        raise ParseError(f"malformed cochain coefficients: {exc}") from exc
    return Cochain(degree=degree, coefficients=coeffs)


def decode_model(payload: dict):
    """Dispatch on the schema tag.  Simplicial models decode to a pair
    (complex, local_system or None); everything else to a single object.
    A value of the wrong type or length anywhere in the payload is a
    ParseError."""
    if not isinstance(payload, dict):
        raise ParseError("top-level JSON value must be an object")
    schema = payload.get("schema")
    try:
        if schema == COMPLEX_SCHEMA:
            kind = payload.get("kind")
            if kind == "simplicial":
                return _decode_simplicial(payload)
            if kind == "cochain":
                return _decode_cochain_complex(payload)
            raise ParseError(f"unknown complex kind {kind!r}")
        if schema == BUNDLE_SCHEMA:
            return _decode_bundle(payload)
        if schema == COCHAIN_SCHEMA:
            return decode_cochain(payload)
    except (TypeError, ValueError, LookupError) as exc:
        raise ParseError(f"malformed {schema} payload: {exc}") from exc
    raise ParseError(f"unknown schema {schema!r}")


def canonical_bytes(payload: dict) -> bytes:
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
        + "\n"
    ).encode("utf-8")


def digest(payload: dict) -> str:
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def load_json_file(path: str | Path) -> dict:
    """Read a JSON file; unreadable files, malformed JSON and non-finite
    numbers (NaN, Infinity, or literals that overflow a double, integers
    included) raise ParseError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from exc

    def number(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            raise ParseError(f"{path}: non-finite number {literal:.20} is not allowed")
        return value

    def integer(literal: str) -> int:
        number(literal)
        return int(literal)

    try:
        return json.loads(text, parse_float=number, parse_int=integer, parse_constant=number)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def dump_json_file(path: str | Path, payload: dict) -> None:
    Path(path).write_bytes(canonical_bytes(payload))
