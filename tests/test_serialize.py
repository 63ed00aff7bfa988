"""JSON schemas: round trips, canonical bytes, and parse failures."""

import json

import numpy as np
import pytest

from torsionlab import (
    Cochain,
    LocalSystem,
    ParseError,
    coboundary_matrices,
    hopf,
    random_bundle,
    reidemeister_torsion,
)
from torsionlab.builders import cycle, lens, simplex_boundary
from torsionlab.chain_models import build_simplicial
from torsionlab.serialize import (
    BUNDLE_SCHEMA,
    COCHAIN_SCHEMA,
    COMPLEX_SCHEMA,
    canonical_bytes,
    decode_cochain,
    decode_model,
    digest,
    dump_json_file,
    encode_bundle,
    encode_cochain,
    encode_complex,
    load_json_file,
    matrix_from_json,
    matrix_to_json,
)


def test_matrix_round_trip():
    m = np.array([[1.0 + 2.0j, -3.5], [0.0, 4.0 - 0.25j]])
    back = matrix_from_json(matrix_to_json(m))
    assert np.array_equal(back, m)
    empty = np.zeros((0, 3), dtype=np.complex128)
    assert matrix_from_json(matrix_to_json(empty), (0, 3)).shape == (0, 3)


def test_matrix_shape_enforced():
    rows = matrix_to_json(np.eye(2))
    with pytest.raises(ParseError, match="expected"):
        matrix_from_json(rows, (3, 3))
    with pytest.raises(ParseError, match="malformed"):
        matrix_from_json([[1.0], [[2.0, "x"]]])
    with pytest.raises(ParseError, match=r"shape \(0, 2\), expected \(1, 2\)"):
        matrix_from_json([], (1, 2))
    with pytest.raises(ParseError, match=r"shape \(2, 0\), expected \(2, 1\)"):
        matrix_from_json([[], []], (2, 1))
    assert matrix_from_json([[], []], (2, 0)).shape == (2, 0)
    assert matrix_from_json([]).shape == (0, 0)


@pytest.mark.parametrize("field", ["coboundary", "gram"])
def test_empty_matrix_for_a_nonempty_block_is_refused(field):
    # read as a zero block, [] would make a 1x1 coboundary 0 and the kernel (1, 1)
    payload = {"schema": COMPLEX_SCHEMA, "kind": "cochain", "dims": [1, 1],
               "coboundary": [[[[1.0, 0.0]]]], "gram": [[[[1.0, 0.0]]], [[[1.0, 0.0]]]]}
    payload[field][0] = []
    with pytest.raises(ParseError, match=r"matrix has shape \(0, 1\), expected \(1, 1\)"):
        decode_model(payload)


def test_simplicial_round_trip_preserves_torsion_inputs():
    K = simplex_boundary(3)
    payload = encode_complex(K)
    assert payload["schema"] == COMPLEX_SCHEMA and payload["kind"] == "simplicial"
    K2, ls = decode_model(payload)
    assert ls is None
    assert K2.simplices == K.simplices
    assert K2.orientation == K.orientation
    a, b = coboundary_matrices(K), coboundary_matrices(K2)
    for p in range(a.top):
        assert np.array_equal(a.delta(p), b.delta(p))


def test_orientation_survives_round_trip():
    K = cycle(5)
    K2, _ = decode_model(encode_complex(K))
    assert K2.orientation == K.orientation


def test_local_system_round_trip():
    K = cycle(3)
    u = np.array([[np.exp(2j * np.pi / 3)]])
    eye = np.eye(1, dtype=np.complex128)
    ls = LocalSystem(rank=1, holonomy={(0, 1): eye, (1, 2): eye, (0, 2): u})
    K2, ls2 = decode_model(encode_complex(K, ls))
    assert ls2 is not None and ls2.rank == 1
    for edge, mat in ls.holonomy.items():
        assert np.array_equal(ls2.holonomy[edge], mat)


def test_mixed_dimension_round_trip():
    K = build_simplicial([(0, 1, 2), (2, 3)], allow_mixed_dimension=True)
    K2, _ = decode_model(encode_complex(K))
    assert K2.simplices == K.simplices


def test_cochain_complex_round_trip_with_gram():
    C = lens(5, 1, 2)
    g = [2.0 * np.eye(1, dtype=np.complex128) for _ in range(4)]
    C = C.with_gram(g)
    payload = encode_complex(C)
    assert payload["kind"] == "cochain"
    C2 = decode_model(payload)
    assert C2.dims == C.dims
    for p in range(C.top):
        assert np.array_equal(C2.delta(p), C.delta(p))
    for p in range(len(C.dims)):
        assert np.array_equal(C2.gram_at(p), C.gram_at(p))


def test_simplicial_backref_encodes_as_simplicial():
    C = coboundary_matrices(cycle(4))
    payload = encode_complex(C)
    assert payload["kind"] == "simplicial"


def test_twisted_or_weighted_simplicial_complexes_keep_their_data():
    K = cycle(3)
    plain = coboundary_matrices(K)
    zeta = np.array([[np.exp(2j * np.pi / 3)]])
    twisted = coboundary_matrices(K, LocalSystem(rank=1, holonomy={(0, 2): zeta}))
    weighted = plain.with_gram([2.0 * np.eye(n, dtype=np.complex128) for n in plain.dims])
    assert encode_complex(plain) == encode_complex(K)
    assert len({digest(encode_complex(C)) for C in (plain, twisted, weighted)}) == 3
    for C, tau in ((twisted, np.sqrt(3.0)), (weighted, 3.0)):
        payload = encode_complex(C)
        assert payload["kind"] == "cochain"
        back = reidemeister_torsion(decode_model(payload))
        assert back.scalar == pytest.approx(tau, rel=1e-12)
        assert back.log_scalar == pytest.approx(reidemeister_torsion(C).log_scalar, abs=1e-14)


def test_bundle_round_trip():
    for b in (hopf(1, 2, 3), random_bundle(5)):
        payload = encode_bundle(b)
        assert payload["schema"] == BUNDLE_SCHEMA
        b2 = decode_model(payload)
        assert b2.radius == b.radius
        assert b2.base.dims == b.base.dims
        for x, y in zip(b2.f_op + b2.h2_op + b2.h3_op, b.f_op + b.h2_op + b.h3_op):
            assert np.array_equal(x, y)
        for p in range(len(b.base.dims)):
            assert np.allclose(b2.base.gram_at(p), b.base.gram_at(p))


def test_cochain_round_trip():
    c = Cochain(degree=3, coefficients=np.array([1.0 + 1.0j, -2.0], dtype=np.complex128))
    payload = encode_cochain(c)
    assert payload["schema"] == COCHAIN_SCHEMA
    c2 = decode_model(payload)
    assert c2.degree == 3
    assert np.array_equal(c2.coefficients, c.coefficients)
    with pytest.raises(ParseError, match="malformed cochain"):
        decode_cochain({"schema": COCHAIN_SCHEMA, "degree": 1, "coefficients": [[1.0]]})


def test_canonical_bytes_are_stable_and_newline_terminated():
    payload = encode_complex(simplex_boundary(3))
    b1 = canonical_bytes(payload)
    b2 = canonical_bytes(json.loads(b1.decode()))
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert b" " not in b1.split(b'"top_simplices"')[0]  # compact separators
    assert digest(payload) == digest(json.loads(b1.decode()))
    assert len(digest(payload)) == 64


def test_canonical_bytes_reject_nan():
    with pytest.raises(ValueError):
        canonical_bytes({"x": float("nan")})


def test_decode_failures():
    with pytest.raises(ParseError, match="unknown schema"):
        decode_model({"schema": "nope.v9"})
    with pytest.raises(ParseError, match="unknown complex kind"):
        decode_model({"schema": COMPLEX_SCHEMA, "kind": "weird"})
    with pytest.raises(ParseError, match="must be an object"):
        decode_model([1, 2, 3])
    with pytest.raises(ParseError, match="missing required key"):
        decode_model({"schema": COMPLEX_SCHEMA, "kind": "cochain"})
    with pytest.raises(ParseError, match="coboundary blocks"):
        decode_model(
            {"schema": COMPLEX_SCHEMA, "kind": "cochain", "dims": [1, 1], "coboundary": []}
        )
    with pytest.raises(ParseError, match="orientation list"):
        decode_model(
            {
                "schema": COMPLEX_SCHEMA,
                "kind": "simplicial",
                "top_simplices": [[0, 1]],
                "orientation": [1, -1],
            }
        )


def test_file_round_trip_and_parse_error_location(tmp_path):
    path = tmp_path / "model.json"
    payload = encode_bundle(hopf(1, 2, 1))
    dump_json_file(path, payload)
    assert load_json_file(path) == json.loads(canonical_bytes(payload).decode())

    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "complex.v1",\n  "kind": }\n')
    with pytest.raises(ParseError, match=r"line 2"):
        load_json_file(bad)
