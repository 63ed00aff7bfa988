"""Acceptance gate: one test per criterion of ``torsion suite``.

Each test runs the suite's own criterion function and asserts its
verdict, so the tests and the suite judge every criterion by the same
bounds.  Each prints a single PASS/FAIL line (visible with -s or in the
failure report) before asserting.  Criterion 2 also keeps an oracle the
suite lacks: exact ranks from sympy.

Criterion 4 is split: the torsion value of the k=1 character is checked
as 4a, and the pairwise separation of the k=2,3,4 characters as 4b.  4b
fails by mathematics, not by accident: conjugate characters (k and 5-k)
give complex-conjugate coboundaries, hence identical real spectra, and
every spectrum-derived scalar agrees on them.  The failure is kept red
here on purpose; see the suite output for the same verdict.
"""

import json
import time
from pathlib import Path

import pytest
import sympy

from torsionlab import reidemeister_torsion, suite
from torsionlab.builders import cycle, lens, simplex_boundary
from torsionlab.chain_models import coboundary_matrices
from torsionlab.serialize import canonical_bytes
from torsionlab.workbench import emit, parse_report

SUITE_GOLDEN = Path(__file__).resolve().parent / "golden" / "suite.json"


def _line(ident: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {ident}: {'PASS' if ok else 'FAIL'} - {detail}")


def _verdict(ident: str, outcome: tuple[bool, str, dict]) -> dict:
    passed, detail, data = outcome
    _line(ident, passed, detail)
    assert passed, detail
    return data


@pytest.fixture(scope="module")
def fleet():
    t0 = time.perf_counter()
    bundles = suite.bundle_fleet()
    reports, failures = suite.fleet_reports(bundles)
    return bundles, reports, failures, time.perf_counter() - t0


def test_criterion_01_square_zero(fleet):
    t0 = time.perf_counter()
    _verdict("1", suite.criterion_1(fleet[0]))
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_kernel_dimensions():
    _verdict("2", suite.criterion_2())
    cases = (
        [coboundary_matrices(cycle(n)) for n in range(3, 9)]
        + [coboundary_matrices(simplex_boundary(n)) for n in (3, 4)]
        + [lens(5, 1, k) for k in (1, 2, 3, 4)]
    )
    for C in cases:
        ranks = []
        for p in range(C.top):
            d = C.delta(p)
            if d.size == 0:
                ranks.append(0)
            else:
                ranks.append(sympy.Matrix(d).rank())
        oracle = tuple(
            C.dims[p]
            - (ranks[p] if p < C.top else 0)
            - (ranks[p - 1] if p > 0 else 0)
            for p in range(len(C.dims))
        )
        got = reidemeister_torsion(C).kernel_dims
        assert got == oracle  # exact integers on both sides


def test_criterion_03_circle_torsion():
    _verdict("3", suite.criterion_3())


def test_criterion_04a_lens_value():
    data = suite.criterion_4()[2]
    rel = data["value_rel_error"]
    _line("4a", rel <= 1e-9, f"lens(5,1,1) relative error {rel:.3e} (bound 1e-9)")
    assert rel <= 1e-9


def test_criterion_04b_lens_characters_distinct():
    # Known red: lens(5,1,2) and lens(5,1,3) carry conjugate characters,
    # so their coboundaries are complex conjugates with the same singular
    # values and the torsion scalars coincide exactly.  The separation
    # demanded here is not achievable by any spectrum-derived scalar.
    _, detail, data = suite.criterion_4()
    coincident = data["equal_pairs"]
    _line("4b", not coincident, f"scalars {data['values']}; coincident pairs {coincident}")
    assert not coincident, detail


def test_criterion_05_zero_flux_agreement():
    _verdict("5", suite.criterion_5())


def test_criterion_06_flux_scaling():
    _verdict("6", suite.criterion_6())


def test_criterion_07_duality_inversion(fleet):
    _, reports, failures, elapsed = fleet
    _verdict("7", suite.criterion_7(reports, failures))
    assert elapsed < 10.0


def test_criterion_08_spectrum_transport(fleet):
    _, reports, failures, _ = fleet
    _verdict("8", suite.criterion_8(reports, failures))


def test_criterion_09_involution(fleet):
    bundles, reports, _, _ = fleet
    _verdict("9", suite.criterion_9(bundles, reports))


def test_criterion_10_suite_determinism():
    from torsionlab.suite import run_suite

    t0 = time.perf_counter()
    first = run_suite()
    second = run_suite()
    elapsed = time.perf_counter() - t0
    b1, b2 = emit(first, "json"), emit(second, "json")
    round_trip = parse_report(json.loads(b1.decode()))
    ok = b1 == b2 and round_trip == first and elapsed < 60.0
    _line(
        "10",
        ok,
        f"byte-identical {b1 == b2}, round trip {round_trip == first}, "
        f"two runs in {elapsed:.2f}s",
    )
    assert b1 == SUITE_GOLDEN.read_bytes()
    assert b1 == b2
    assert round_trip == first
    assert canonical_bytes(round_trip.to_json()) == b1
    assert elapsed < 60.0
