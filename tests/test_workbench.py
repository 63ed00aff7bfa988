"""Command layer: model resolution, flux parsing, report rendering."""

import json
import warnings

import numpy as np
import pytest

from torsionlab import (
    BundleData,
    Cochain,
    GradedCochainComplex,
    ParseError,
    SimplicialComplex,
    UnknownBuilder,
    ValidationError,
    coboundary_matrices,
    hopf,
)
from torsionlab.builders import simplex_boundary
from torsionlab.serialize import (
    dump_json_file,
    encode_bundle,
    encode_cochain,
    encode_complex,
)
from torsionlab.workbench import (
    COMMANDS,
    Report,
    RunOptions,
    emit,
    load_bundle,
    load_model,
    parse_flux,
    parse_report,
    run,
)


# ---------------------------------------------------------------------------
# model resolution
# ---------------------------------------------------------------------------

def test_load_model_expression_and_bundle():
    K = load_model("cycle(4)")
    assert isinstance(K, SimplicialComplex)
    b = load_model("hopf(1,2,3)")
    assert isinstance(b, BundleData) and b.radius == 3.0
    assert isinstance(load_model("random(3)"), BundleData)


def test_load_model_from_file(tmp_path):
    path = tmp_path / "sphere.json"
    dump_json_file(path, encode_complex(simplex_boundary(3)))
    K, ls = load_model(str(path))
    assert isinstance(K, SimplicialComplex) and ls is None


def test_load_bundle_arity_and_overrides(tmp_path):
    assert load_bundle("hopf(1,2)").radius == 1.0
    assert load_bundle("hopf(1, 2, 0.5)").radius == 0.5
    with pytest.raises(UnknownBuilder, match="bad arguments for hopf"):
        load_bundle("hopf(1)")
    with pytest.raises(UnknownBuilder, match="unknown model"):
        load_bundle("mobius(2)")
    with pytest.raises(UnknownBuilder, match="must be finite numbers"):
        load_bundle("hopf(a,b)")

    b = load_bundle("hopf(1,2,3)", RunOptions(radius=7.0))
    assert b.radius == 7.0
    for text in ("random()", " random( ) ", "random_bundle()"):
        assert load_bundle(text, RunOptions(seed=4)).radius == load_bundle("random(4)").radius
    # --seed fills only an expression that parses to random_bundle with no
    # arguments
    for text in ("random(,)", "random(3)", "hopf(1,2)", "mobius()", "random", "x.json"):
        with pytest.raises(ValidationError, match=r"--seed fills an empty random\(\) only"):
            load_bundle(text, RunOptions(seed=4))

    path = tmp_path / "bundle.json"
    dump_json_file(path, encode_bundle(hopf(1, 2, 2)))
    assert load_bundle(str(path)).radius == 2.0

    wrong = tmp_path / "complex.json"
    dump_json_file(wrong, encode_complex(simplex_boundary(3)))
    with pytest.raises(ValidationError, match="bundle data"):
        load_bundle(str(wrong))


def test_parse_flux_grammar(tmp_path):
    C = coboundary_matrices(simplex_boundary(4))
    assert parse_flux("zero", C) is None
    assert parse_flux(None, C) is None
    assert parse_flux("0", C) is None

    top = parse_flux("top", C)
    assert top.degree == 3 and np.all(top.coefficients == 1.0)
    scaled = parse_flux("top(-2.5)", C)
    assert np.all(scaled.coefficients == -2.5)
    cplx = parse_flux("top(1+2j)", C)
    assert np.all(cplx.coefficients == 1.0 + 2.0j)

    path = tmp_path / "flux.json"
    c = Cochain(degree=3, coefficients=np.ones(C.simplicial.n(3), dtype=np.complex128))
    dump_json_file(path, encode_cochain(c))
    loaded = parse_flux(str(path), C)
    assert loaded.degree == 3 and np.array_equal(loaded.coefficients, c.coefficients)

    with pytest.raises(ValidationError, match="unknown flux spec"):
        parse_flux("sideways", C)
    with pytest.raises(ValidationError, match="bad flux coefficient"):
        parse_flux("top(xyz)", C)
    # refused before scaling, so numpy warns of no inf * 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in ("top(1e400)", "top(inf)", "top(1e400j)", "top(nan)"):
            with pytest.raises(ValidationError, match="is not finite"):
                parse_flux(spec, C)
    wrong = tmp_path / "notflux.json"
    dump_json_file(wrong, encode_complex(simplex_boundary(3)))
    with pytest.raises(ValidationError, match="cochain.v1"):
        parse_flux(str(wrong), C)


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

_CASES = {
    "reidemeister": "cycle(5)",
    "twisted": "simplex_boundary(4)",
    "bundle-torsion": "hopf(1,2,1)",
    "t-dual": "hopf(1,2,3)",
    "verify-duality": "hopf(1,2,1)",
    "deform": "hopf(1,2,1)",
}


def test_every_command_produces_a_report():
    assert set(_CASES) == set(COMMANDS)
    for command, model in _CASES.items():
        report = run(command, model)
        assert isinstance(report, Report)
        assert report.ok
        assert "model_digest" in report.result
        assert "wall_seconds" in report.timings


# a value away from the default for every option; each one changes the
# result of every case that reads it
_AWAY = {"flux": "top", "radius": 2.5, "kernel_tol": 6.0, "seed": 3, "steps": 3}


@pytest.mark.parametrize("command", sorted(_CASES))
def test_a_command_reads_exactly_the_options_in_its_table(command):
    assert set(_AWAY) == set(RunOptions.__dataclass_fields__)
    (_, reads), model = COMMANDS[command], _CASES[command]
    plain = run(command, model)
    ignored = run(command, model, RunOptions(**{f: v for f, v in _AWAY.items() if f not in reads}))
    assert (ignored.result, ignored.warnings) == (plain.result, plain.warnings)
    for field in reads:
        base = "random()" if field == "seed" else model  # --seed fills an empty random()
        before = run(command, base)
        after = run(command, base, RunOptions(**{field: _AWAY[field]}))
        assert (after.result, after.warnings) != (before.result, before.warnings), field


def test_reidemeister_report_values():
    report = run("reidemeister", "cycle(5)")
    assert report.result["torsion"]["scalar"] == pytest.approx(5.0, rel=1e-9)
    assert report.result["cohomology_dims"] == [1, 1]
    assert report.convention == "p-weighted-v1"


def test_twisted_command_with_flux():
    report = run("twisted", "simplex_boundary(4)", RunOptions(flux="top(2)"))
    assert report.result["cohomology_dims"] == {"even": 0, "odd": 0}
    assert report.result["flux"] == "top(2)"
    assert report.convention == "parity-split-v1"


def test_kernel_dims_disagreeing_with_rank_nullity_warn(tmp_path):
    # a kernel tolerance of 1 cuts the Laplacian eigenvalues 0.25 into the
    # kernel, while rank-nullity sees delta = [[0.5]] as invertible
    path = tmp_path / "half.json"
    dump_json_file(path, encode_complex(
        GradedCochainComplex(dims=(1, 1), coboundary=(np.array([[0.5]]),))
    ))
    report = run("reidemeister", str(path), RunOptions(kernel_tol=1.0))
    assert report.result["torsion"]["kernel_dims"] == [1, 1]
    assert report.result["cohomology_dims"] == [0, 0]
    assert report.warnings == (
        "kernel dims [1, 1] disagree with rank-nullity cohomology dims [0, 0]; "
        "the kernel tolerance may cut through the nonzero spectrum",
    )
    assert run("reidemeister", str(path)).warnings == ()

    report = run("twisted", "simplex_boundary(4)", RunOptions(flux="top(0.5)", kernel_tol=1e3))
    assert report.result["cohomology_dims"] == {"even": 0, "odd": 0}
    assert [w for w in report.warnings if "rank-nullity" in w] == [
        f"kernel dims {report.result['torsion']['kernel_dims']} disagree with rank-nullity "
        "cohomology dims [0, 0]; the kernel tolerance may cut through the nonzero spectrum"
    ]


def test_verify_duality_report_passes():
    report = run("verify-duality", "hopf(1,2,1)")
    r = report.result
    assert r["passed"] is True
    assert r["tau_times_tau_dual"] == 1.0
    assert r["tolerance"] == 1e-8


def test_t_dual_inverts_radius():
    report = run("t-dual", "hopf(1,2,4)")
    assert report.result["radius"] == 0.25
    assert report.result["bundle"]["schema"] == "bundle.v1"


def test_deform_respects_steps():
    report = run("deform", "hopf(1,2,1)", RunOptions(steps=3))
    assert len(report.result["parameters"]) == 4
    assert report.result["max_abs_log_drift"] <= 1e-12


def test_unknown_command_raises():
    with pytest.raises(ValidationError, match="unknown command"):
        run("frobnicate", "cycle(3)")


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_json_emission_round_trips_and_is_stable():
    report = run("twisted", "cycle(3)")
    blob1 = emit(report, "json")
    blob2 = emit(run("twisted", "cycle(3)"), "json")
    assert blob1 == blob2  # timings never reach the payload
    parsed = parse_report(json.loads(blob1.decode()))
    assert parsed == report  # timings are excluded from equality too
    assert parsed.result == report.result


def test_text_emission_mentions_the_product():
    text = emit(run("verify-duality", "hopf(1,2,1)"), "text").decode()
    assert "tau * tau_dual = 1.0" in text
    assert "verdict: pass" in text
    assert "wall time" in text

    text = emit(run("reidemeister", "cycle(3)"), "text").decode()
    assert "log tau" in text and "kernel dims" in text


def test_emit_rejects_unknown_format():
    with pytest.raises(ValidationError, match="unknown format"):
        emit(run("reidemeister", "cycle(3)"), "yaml")


def test_parse_report_requires_schema():
    with pytest.raises(ParseError, match="report.v1"):
        parse_report({"schema": "other.v1"})
