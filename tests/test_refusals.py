"""Refusals that the rest of the suite never reaches: each input, the
error it raises and a fragment of the message."""

import numpy as np
import pytest

from torsionlab.builders import cycle, simplex_boundary
from torsionlab.chain_models import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    TwistedComplex,
    build_simplicial,
    coboundary_matrices,
    cup,
    pair_with_fundamental_class,
    twisted_differential,
)
from torsionlab.errors import FluxError, NotOriented, ParseError, ValidationError
from torsionlab.serialize import COMPLEX_SCHEMA, decode_model, encode_complex, load_json_file
from torsionlab.spectral import hermitian_spectrum


def _interval() -> GradedCochainComplex:
    return GradedCochainComplex(dims=(1, 1), coboundary=(np.ones((1, 1)),))


def _twisted(d_even: np.ndarray, d_odd: np.ndarray) -> TwistedComplex:
    return TwistedComplex(1, 1, d_even, d_odd, None, None)


REFUSALS = {
    "orientation-keys-not-top": (
        lambda: build_simplicial([(0, 1, 2), (1, 2, 3)], {(0, 1): 1}),
        NotOriented, "orientation must cover exactly the top simplices",
    ),
    "local-system-rank": (
        lambda: LocalSystem(rank=0), ValidationError, "local system rank must be >= 1",
    ),
    "holonomy-unsorted-edge": (
        lambda: LocalSystem(rank=1, holonomy={(1, 0): np.eye(1)}),
        ValidationError, "holonomy key (1, 0) is not a sorted edge",
    ),
    "holonomy-shape": (
        lambda: LocalSystem(rank=2, holonomy={(0, 1): np.eye(3)}),
        ValidationError, "has shape (3, 3), expected (2, 2)",
    ),
    "no-degrees": (
        lambda: GradedCochainComplex(dims=(), coboundary=()),
        ValidationError, "bad dimension vector ()",
    ),
    "coboundary-count": (
        lambda: GradedCochainComplex(dims=(1, 1), coboundary=()),
        ValidationError, "0 coboundaries for 2 degrees; expected 1",
    ),
    "coboundary-shape": (
        lambda: GradedCochainComplex(dims=(1, 1), coboundary=(np.ones((2, 1)),)),
        ValidationError, "coboundary 0 has shape (2, 1), expected (1, 1)",
    ),
    "gram-count": (
        lambda: GradedCochainComplex(dims=(1, 1), coboundary=(np.ones((1, 1)),), gram=[np.eye(1)]),
        ValidationError, "need one Gram per degree",
    ),
    "delta-degree": (lambda: _interval().delta(2), ValidationError, "degree 2 outside 0..1"),
    "cochain-degree": (
        lambda: Cochain(degree=-1, coefficients=[1.0]), ValidationError, "negative cochain degree -1",
    ),
    "cochain-shape": (
        lambda: Cochain(degree=0, coefficients=np.ones((2, 2))),
        ValidationError, "cochain coefficients must be a vector",
    ),
    "cochain-length": (
        lambda: cup(Cochain(0, np.ones(2)), Cochain(0, np.ones(3)), cycle(3)),
        ValidationError, "degree-0 cochain has 2 coefficients, complex has 3 simplices",
    ),
    "d-even-shape": (
        lambda: _twisted(np.zeros((2, 1)), np.zeros((1, 1))), ValidationError, "d_even shape (2, 1)",
    ),
    "d-odd-shape": (
        lambda: _twisted(np.zeros((1, 1)), np.zeros((1, 2))), ValidationError, "d_odd shape (1, 2)",
    ),
    "flux-component-type": (
        lambda: twisted_differential(_interval(), [1.0]), FluxError, "flux component of type float",
    ),
    "twist-a-non-complex": (
        lambda: twisted_differential(cycle(3)), ValidationError, "cannot twist a SimplicialComplex",
    ),
    "flux-over-local-system": (
        lambda: twisted_differential(
            coboundary_matrices(simplex_boundary(4), LocalSystem(rank=2)),
            Cochain(3, np.ones(5)),
        ),
        FluxError, "flux over a nontrivial local system is not supported",
    ),
    "encode-unknown": (lambda: encode_complex(object()), ParseError, "cannot encode object of type object"),
    "decode-gram-count": (
        lambda: decode_model({
            "schema": COMPLEX_SCHEMA, "kind": "cochain", "dims": [1, 1],
            "coboundary": [[[[1.0, 0.0]]]], "gram": [[[[1.0, 0.0]]]],
        }),
        ParseError, "gram list must have one block per degree",
    ),
    "operator-not-square": (
        lambda: hermitian_spectrum(np.ones((2, 3))), ValueError, "operator must be square, got shape (2, 3)",
    ),
}


@pytest.mark.parametrize("case", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(case):
    call, error, fragment = case
    with pytest.raises(error) as caught:
        call()
    assert fragment in str(caught.value)


@pytest.mark.parametrize("content, fragment", [(None, "cannot read"), (b"\xff{}", "not UTF-8 text")])
def test_an_unreadable_file_is_refused(tmp_path, content, fragment):
    path = tmp_path / "model.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ParseError, match=fragment):
        load_json_file(path)


def test_a_complex_pairing_comes_back_complex():
    value = pair_with_fundamental_class(cycle(4), Cochain(1, np.full(4, 1 + 2j)))
    # the closing edge runs backwards, so the signs sum to 2
    assert type(value) is complex and value == 2 * (1 + 2j)
