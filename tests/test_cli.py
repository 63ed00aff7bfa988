"""Exit codes, output formats, and argument handling of the front end."""

import copy
import importlib
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsionlab
from torsionlab.cli import build_parser, main
from torsionlab.serialize import dump_json_file, encode_complex


def test_reidemeister_text(capsys):
    assert main(["reidemeister", "cycle(5)"]) == 0
    out = capsys.readouterr().out
    assert "log tau" in out
    value = float(re.search(r"^  tau = (.+)$", out, re.M).group(1))
    assert value == pytest.approx(5.0, rel=1e-9)


def test_json_output_parses(capsys):
    assert main(["twisted", "simplex_boundary(3)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "report.v1"
    assert payload["command"] == "twisted"
    assert "timings" not in payload


def test_flux_and_radius_options(capsys):
    assert main(["twisted", "simplex_boundary(4)", "--flux", "top(2)",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["cohomology_dims"] == {"even": 0, "odd": 0}

    assert main(["bundle-torsion", "hopf(1,2)", "--radius", "3",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["radius"] == 3.0
    assert payload["result"]["torsion"]["scalar"] == pytest.approx(18.0, rel=1e-9)


def test_unknown_model_is_exit_2(capsys):
    assert main(["reidemeister", "nope(3)"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("torsion: error:")
    assert "unknown model" in err


def test_invalid_model_parameters_are_exit_2(capsys):
    assert main(["reidemeister", "cycle(1)"]) == 2
    assert "torsion: error:" in capsys.readouterr().err


def test_model_argument_required():
    with pytest.raises(SystemExit) as exc:
        main(["reidemeister"])
    assert exc.value.code == 2


def test_unknown_command_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        main(["explode", "cycle(3)"])
    assert exc.value.code == 2


def test_suite_rejects_tol(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "torsion: error: suite does not read --tol" in capsys.readouterr().err


def test_suite_refuses_a_model(capsys, monkeypatch):
    # the battery runs pinned models: a model given to it is refused, not
    # dropped, before anything runs
    monkeypatch.setattr("torsionlab.suite.run_suite", lambda: pytest.fail("suite ran"))
    with pytest.raises(SystemExit) as exc:
        main(["suite", "nope(3)", "--format", "json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "torsion: error: suite does not read a model" in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["reidemeister", "cycle(5)", "--flux", "top"], "--flux"),
        (["verify-duality", "random(7)", "--seed", "5"], "--seed"),
        (["t-dual", "hopf(1,2)", "--tol", "1e-3"], "--tol"),
        (["reidemeister", "cycle(5)", "--radius", "2"], "--radius"),
        (["twisted", "simplex_boundary(4)", "--steps", "3"], "--steps"),
    ],
)
def test_an_option_the_command_does_not_read_is_refused(argv, option, capsys):
    # the parser refuses an option outside the command's table; load_bundle
    # refuses a --seed that has no empty random() to fill
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "torsion: error: " in captured.err and option in captured.err


def test_every_command_has_a_table_of_the_options_it_reads():
    from torsionlab import cli
    from torsionlab.workbench import COMMANDS

    actions = {a.dest: a for a in build_parser()._actions}
    assert set(actions["command"].choices) == {*COMMANDS, "suite"}
    assert set().union(*(reads for _, reads in COMMANDS.values())) == set(cli._OPTIONS.values())


def test_readme_lists_the_options_each_command_reads():
    from torsionlab import cli
    from torsionlab.workbench import COMMANDS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| command | options it reads |\n| --- | --- |\n")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines():
        commands, options = row.strip("|").split("|")
        reads = {cli._OPTIONS[flag] for flag in re.findall(r"`(--[a-z]+)`", options)}
        listed.update(dict.fromkeys(re.findall(r"`([a-z-]+)`", commands), reads))
    assert listed == {**{name: set(reads) for name, (_, reads) in COMMANDS.items()}, "suite": set()}


def test_suite_text_ends_each_criterion_with_its_seconds(capsys, monkeypatch):
    from torsionlab import suite

    # two stand-in criteria keep the run short; the timing plumbing is real
    battery = [("1", True), ("2", False)]
    monkeypatch.setattr(suite, "_battery", lambda: [
        suite._wrap(ident, f"stand-in {ident}", lambda ok=ok: (ok, "detail", {"x": 1}))
        for ident, ok in battery
    ])
    monkeypatch.setattr(suite, "_criterion_10", lambda first: (True, "detail", {}))

    assert main(["suite", "--format", "json"]) == 1
    text = capsys.readouterr().out
    assert "second" not in text and "timing" not in text
    assert [c["id"] for c in json.loads(text)["result"]["criteria"]] == ["1", "2", "10"]

    assert main(["suite"]) == 1
    lines = capsys.readouterr().out.splitlines()
    criteria = [ln for ln in lines if ln.startswith(("  PASS", "  FAIL"))]
    assert len(criteria) == 3
    for line in criteria:
        assert re.search(r"\(\d+\.\d\d s\)$", line), line


def test_verify_duality_text(capsys, monkeypatch):
    monkeypatch.setenv("TORSION_NO_COLOR", "1")
    assert main(["verify-duality", "hopf(1,2,1)"]) == 0
    out = capsys.readouterr().out
    assert "tau * tau_dual = 1.0" in out
    assert "verdict: pass" in out


def test_deform_steps_option(capsys):
    assert main(["deform", "hopf(1,2,1)", "--steps", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["parameters"] == [0.0, 0.5, 1.0]


def test_deform_refuses_a_step_count_past_the_size_guard(capsys):
    # 1e8 steps once ran until the process was killed; the count is
    # refused before the first step
    assert main(["deform", "hopf(1,2,1)", "--steps", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        f"torsion: error: at most {torsionlab.chain_models.MAX_MODEL_SIZE} steps, got 100000000"
    ]


def test_no_color_env_strips_ansi(capsys, monkeypatch):
    # piped output already disables color; the env var must force it off
    # even when stdout pretends to be a terminal
    monkeypatch.setenv("TORSION_NO_COLOR", "1")
    import sys

    monkeypatch.setattr(sys.stdout, "isatty", lambda: True, raising=False)
    main(["reidemeister", "cycle(3)"])
    assert "\x1b[" not in capsys.readouterr().out


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "torsion"
    # suite is a valid command on top of the workbench ones
    actions = {a.dest: a for a in parser._actions}
    assert "suite" in actions["command"].choices


def _error_lines(err: str) -> list[str]:
    return [ln for ln in err.splitlines() if ln.startswith("torsion: error:")]


@pytest.mark.parametrize(
    "argv",
    [
        ["bundle-torsion", "hopf(nan,1,1)"],
        ["verify-duality", "hopf(inf,1,1)"],
        ["bundle-torsion", "random(7.5)"],
        ["t-dual", "random(-1)"],
        ["reidemeister", "missing-model.json"],
        ["reidemeister", f"lens({10**30},1,1)"],
        ["twisted", "cycle(1000000000)"],
        ["twisted", "simplex_boundary(40)"],
        ["bundle-torsion", "hopf(1,,2)"],
        ["t-dual", "random(,3,)"],
        ["twisted", "simplex_boundary(4)", "--flux", "top()"],
        ["twisted", "simplex_boundary(4)", "--flux", "top(1e-400)"],
        ["twisted", "simplex_boundary(4)", "--flux", "top(1e-400j)"],
    ],
    ids=["hopf-nan", "hopf-inf", "random-float-seed", "random-negative-seed",
         "missing-file", "lens-overflow", "cycle-oversize", "simplex-boundary-oversize",
         "hopf-empty-argument", "random-empty-arguments", "flux-empty-coefficient",
         "flux-underflow", "flux-imaginary-underflow"],
)
def test_bad_model_input_is_refused(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize(
    "literal",
    ["NaN", "Infinity", "-Infinity", "1e400", str(10**400)],
    ids=["nan", "inf", "-inf", "float-overflow", "int-overflow"],
)
def test_non_finite_json_model_is_refused(literal, capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"schema": "complex.v1", "kind": "cochain", "dims": [1, 1], '
        f'"coboundary": [[[[{literal}, 0.0]]]]}}'
    )
    assert main(["reidemeister", str(path)]) == 2
    err = capsys.readouterr().err
    assert _error_lines(err) == [
        f"torsion: error: {path}: non-finite number {literal[:20]} is not allowed"
    ]


def _write_one_by_one(path: Path, entry: float) -> Path:
    path.write_text(
        '{"schema": "complex.v1", "kind": "cochain", "dims": [1, 1], '
        f'"coboundary": [[[[{entry!r}, 0.0]]]]}}'
    )
    return path


@pytest.mark.parametrize("entry", [1e160, 1e200, 1e-170])
def test_coboundary_whose_square_leaves_float64_is_refused(entry, capsys, tmp_path):
    path = _write_one_by_one(tmp_path / "model.json", entry)
    assert main(["reidemeister", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = _error_lines(captured.err)
    assert "coboundary 0 has an entry of modulus" in line


def test_grams_that_underflow_the_laplacian_are_refused(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(
        '{"schema": "complex.v1", "kind": "cochain", "dims": [1, 1], '
        '"coboundary": [[[[1e-150, 0.0]]]], '
        '"gram": [[[[1e150, 0.0]]], [[[1e-150, 0.0]]]]}'
    )
    assert main(["reidemeister", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = _error_lines(captured.err)
    assert "underflowed float64" in line


@pytest.mark.parametrize("command", ["reidemeister", "twisted"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_torsion_beyond_float64_is_refused(command, fmt, capsys, tmp_path):
    # every entry is in range, but log tau = 3 log 1e150 = 1036.16 > log(float max)
    path = tmp_path / "model.json"
    rows = [[[1e150 if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]
    path.write_text(json.dumps(
        {"schema": "complex.v1", "kind": "cochain", "dims": [3, 3], "coboundary": [rows]}
    ))
    assert main([command, str(path), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = _error_lines(captured.err)
    assert "torsion log-scalar 1036.16" in line


@pytest.mark.parametrize("flux", ["top(1e200)", "top(1e-200j)"])
def test_flux_whose_square_leaves_float64_is_refused_without_a_warning(flux):
    # the refusal names the flux, and comes before any norm of it could
    # overflow or underflow with a numpy RuntimeWarning
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", "twisted", "simplex_boundary(4)", "--flux", flux],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("torsion: error: degree-3 flux has an entry of modulus")
    assert "RuntimeWarning" not in run.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bundle-torsion", "hopf(1,2)", "--radius", "5e-324"], "inverse radius 1/r = inf"),
        (["verify-duality", "hopf(1,2,5e-324)"], "inverse radius 1/r = inf"),
        (["t-dual", "hopf(1,2,5e-324)"], "inverse radius 1/r = inf"),
        (["bundle-torsion", "hopf(2,1,1e-308)"], "outside [1e-150, 1e+150]"),
        (["bundle-torsion", "hopf(1,3,1e308)"], "non-finite entry"),
    ],
)
def test_extreme_fiber_radii_are_refused_without_a_warning(argv, message):
    # a radius whose inverse overflows is refused when the model is built;
    # a finite r whose scaled F or H2 overflows reaches the entry check
    # as inf, with no numpy RuntimeWarning printed first
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "torsionlab.cli", *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert run.stdout == ""
    [line] = run.stderr.splitlines()
    assert line.startswith("torsion: error:") and message in line


@pytest.mark.parametrize("entry", [1e150, 1e-150])
def test_coboundary_at_the_range_ends_gives_log_modulus(entry, capsys, tmp_path):
    path = _write_one_by_one(tmp_path / "model.json", entry)
    assert main(["reidemeister", str(path), "--format", "json"]) == 0
    torsion = json.loads(capsys.readouterr().out)["result"]["torsion"]
    assert torsion["log_scalar"] == pytest.approx(math.log(entry), rel=1e-15)
    assert torsion["kernel_dims"] == [0, 0]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "abc"])
def test_bad_tolerance_is_refused(tol, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reidemeister", "cycle(5)", f"--tol={tol}"])
    assert exc.value.code == 2
    assert _error_lines(capsys.readouterr().err) == [
        f"torsion: error: argument --tol: must be a finite number > 0, got {tol!r}"
    ]


def _splitting_tolerance(model: str) -> float:
    """The first float, stepping up from just below 7.3705151024429, at
    which the model's and its dual's copies of one eigenvalue, equal up
    to roundoff, fall on opposite sides of the kernel cut."""
    bundle = torsionlab.builders.from_expression(model)
    tol = 7.37051510244288
    for _ in range(256):
        try:
            torsionlab.verify_t_duality(bundle, kernel_tol=tol)
        except torsionlab.DualityViolation as exc:
            assert "cuts the two spectra differently" in str(exc)
            return tol
        tol = float(np.nextafter(tol, np.inf))
    raise AssertionError(f"no tolerance in the window splits {model}")


def test_tolerance_inside_the_spectrum_is_named_not_called_a_bug(capsys):
    # the cut puts one copy of an eigenvalue in the kernel and the other
    # outside it, so one kernel dim reads 8 on one side and 9 on the other
    tol = _splitting_tolerance("random(13,4)")
    assert main(["verify-duality", "random(13,4)", "--tol", repr(tol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = _error_lines(captured.err)
    assert f"kernel tolerance {tol!r} cuts the two spectra differently" in line
    dims = re.search(
        r"\(even, odd\) \((\d), (\d)\) on the model against \(odd, even\) \((\d), (\d)\)", line
    )
    primal, dual = dims.groups()[:2], dims.groups()[2:]
    assert primal != dual and set(primal + dual) == {"8", "9"}
    assert "implementation bug" not in line


def test_ill_conditioned_grams_run_with_the_rank_nullity_warning(capsys, tmp_path):
    # Grams of condition 1e10 on cycle(6): the default cut then falls
    # inside the nonzero spectrum, which the report says; no Gram check
    # in the eigensolver refuses the model over roundoff
    rng = np.random.default_rng(1)
    C = torsionlab.coboundary_matrices(torsionlab.builders.cycle(6))
    grams = []
    for n in C.dims:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        g = (q * np.logspace(0, -10, n)) @ q.T
        grams.append(0.5 * (g + g.T))
    path = tmp_path / "model.json"
    dump_json_file(path, encode_complex(C.with_gram(grams)))
    assert main(["reidemeister", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["cohomology_dims"] == [1, 1]
    assert report["result"]["torsion"]["kernel_dims"] != [1, 1]
    assert any("disagree with rank-nullity" in w for w in report["warnings"])


@pytest.mark.parametrize(
    "command, model, kernel_dims, rank_nullity",
    [
        ("bundle-torsion", "random(26,3)", [5, 5], [3, 3]),
        ("verify-duality", "random(24,3)", [4, 4, 4, 4], [2, 2, 2, 2]),
    ],
)
def test_bundle_commands_warn_when_the_tolerance_breaks_rank_nullity(
    command, model, kernel_dims, rank_nullity, capsys
):
    def dims(tol):
        argv = [command, model, "--format", "json"] + (["--tol", tol] if tol else [])
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        found = report["result"]["cohomology_dims"]
        return [found[k] for k in ("even", "odd", "dual_even", "dual_odd") if k in found], [
            w for w in report["warnings"] if "rank-nullity" in w
        ]

    # a cut above the nonzero spectrum (largest eigenvalue 0.39 on
    # random(26,3), 1.37 on random(24,3)) puts it in the kernels
    assert dims("1.5") == (kernel_dims, [
        f"kernel dims {kernel_dims} disagree with rank-nullity cohomology dims "
        f"{rank_nullity}; the kernel tolerance may cut through the nonzero spectrum"
    ])
    # the default cut agrees with rank-nullity, and no warning is added
    assert dims(None) == (rank_nullity, [])


def test_tolerance_below_roundoff_is_named_in_the_refusal(capsys):
    # every solved operator is positive semidefinite: a negative eigenvalue
    # within n eps of the spectrum's size is roundoff, and the refusal says
    # the tolerance caused it
    assert main(["twisted", "simplex_boundary(4)", "--tol", "1e-20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        "torsion: error: eigenvalue -6.661338e-16 is roundoff of a positive semidefinite "
        "operator (n eps max|eigenvalue| = 1.665e-14); kernel tolerance 1.000e-20 is "
        "below the precision of the solve"
    ]


@pytest.mark.parametrize(
    "argv, eigenvalue, roundoff",
    [
        (["bundle-torsion", "random(26,3)"], "2.775558e-17", "4.336e-16"),
        (["verify-duality", "random(24,3)"], "5.551115e-17", "1.214e-15"),
    ],
)
def test_roundoff_kept_above_the_cut_is_refused_whatever_its_sign(
    argv, eigenvalue, roundoff, capsys
):
    # the same rule as a negative roundoff eigenvalue: a positive one that
    # the cut keeps out of the kernel is refused, not warned about
    assert main(argv + ["--tol", "1e-20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _error_lines(captured.err) == [
        f"torsion: error: eigenvalue {eigenvalue} is roundoff of a positive semidefinite "
        f"operator (n eps max|eigenvalue| = {roundoff}); kernel tolerance 1.000e-20 is "
        "below the precision of the solve"
    ]


def test_positive_tolerance_runs(capsys):
    assert main(["reidemeister", "cycle(5)", "--tol", "1e-6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["kernel_tol"] == 1e-6


def _simplicial(**fields) -> dict:
    return {"schema": "complex.v1", "kind": "simplicial", "top_simplices": [[0, 1], [1, 2]], **fields}


def _bundle(base_dims=(1, 0, 1), f_op=([[[1.0, 0.0]]], [], [])) -> dict:
    return {
        "schema": "bundle.v1",
        "base": {"schema": "complex.v1", "kind": "cochain", "dims": list(base_dims),
                 "coboundary": [[], [[]]]},
        "f_op": list(f_op),
        "h2_op": [[[[2.0, 0.0]]], [], []],
        "h3_op": [[], [], []],
        "radius": 1.5,
    }


_FLUX = ["twisted", "simplex_boundary(4)", "--flux"]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["reidemeister"], _simplicial(top_simplices=[[0, 0]])),
        (["reidemeister"], _simplicial(top_simplices=[])),
        (["reidemeister"], _simplicial(top_simplices=[[0, -1]])),
        (["reidemeister"], _simplicial(top_simplices=[[0, 1], [1, "x"]])),
        (["reidemeister"], _simplicial(top_simplices=5)),
        (["reidemeister"], _simplicial(orientation=[1, "a"])),
        (["bundle-torsion"], _bundle(f_op=([[[1.0, 0.0]]], [], [], []))),
        (["bundle-torsion"], _bundle(base_dims=(1, "a", 1))),
        (_FLUX, [1, 2, 3]),
        (["reidemeister"], _simplicial(top_simplices=[[0, 1.7], [1, 2], [0, 2]])),
        (_FLUX, {"schema": "cochain.v1", "degree": 3.9, "coefficients": [[1.0, 0.0]] * 5}),
    ],
    ids=["repeated-vertex", "no-simplex", "negative-vertex", "string-vertex",
         "simplices-not-a-list", "string-sign", "extra-f-block", "string-dim", "flux-list",
         "fractional-vertex", "fractional-flux-degree"],
)
def test_malformed_files_are_refused(argv, payload, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(_error_lines(captured.err)) == 1


@pytest.mark.parametrize(
    "payload",
    [
        _simplicial(top_simplices=[list(range(26))]),
        _simplicial(top_simplices=[[i, i + 1] for i in range(5000)]),
        {"schema": "complex.v1", "kind": "cochain", "dims": [200000, 0], "coboundary": [[]]},
        {"schema": "complex.v1", "kind": "cochain", "dims": [0] * 9000,
         "coboundary": [[]] * 8999},
        _simplicial(local_system={"rank": 3000, "holonomy": []}),
        _bundle(base_dims=(200000, 0, 1)),
    ],
    ids=["26-vertex-simplex", "5000-edge-path", "cochain-200000-cells", "cochain-9000-degrees",
         "rank-3000-local-system", "bundle-200000-cell-base"],
)
def test_oversize_files_are_refused_before_building(payload, capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    command = "bundle-torsion" if payload["schema"] == "bundle.v1" else "reidemeister"
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = _error_lines(captured.err)
    assert len(errors) == 1 and "too large to build: over 8192" in errors[0]


# valid files, each with the arguments that read it
_VALID_FILES = [
    (["reidemeister"], _simplicial(
        top_simplices=[[0, 1], [1, 2], [0, 2]], orientation=[1, 1, -1],
        local_system={"rank": 1, "holonomy": [{"edge": [0, 2], "matrix": [[[0.0, 1.0]]]}]},
    )),
    (["twisted"], {"schema": "complex.v1", "kind": "cochain", "dims": [1, 1],
                   "coboundary": [[[[2.0, 0.0]]]],
                   "gram": [[[[1.0, 0.0]]], [[[2.0, 0.0]]]]}),
    (["bundle-torsion"], _bundle()),
    (_FLUX, {"schema": "cochain.v1", "degree": 3, "coefficients": [[1.0, 0.0]] * 5}),
]

# small integers only, so no mutation asks for a model of unbounded size
_REPLACEMENTS = st.one_of(
    st.integers(-2, 6), st.sampled_from([0.5, -1.0, "x", None, True, [], {}, [1], [[1]]]),
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(data, payload):
    """Delete or replace one node; replacements are copied, since a later
    mutation may edit them in place."""
    paths = list(_paths(payload))[1:]
    if not paths:
        return copy.deepcopy(data.draw(_REPLACEMENTS))
    *parents, key = data.draw(st.sampled_from(paths))
    node = payload
    for k in parents:
        node = node[k]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = copy.deepcopy(data.draw(_REPLACEMENTS))
    return payload


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_exit_0_or_2(data, capsys, tmp_path):
    argv, payload = data.draw(st.sampled_from(_VALID_FILES))
    payload = copy.deepcopy(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        payload = _mutate(data, payload)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code = main(argv + [str(path)])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert len(_error_lines(err)) == (code == 2)


def test_cohomology_dims_print_as_plain_ints_without_numpy_ma():
    # cycle(40)'s b_0 is counted by union-find on its edges; its dims print
    # as [1, 1] in both formats, and counting them must not pull in
    # numpy.ma (np.unique and np.isin import it on first call)
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "from torsionlab.cli import main\n"
        "for fmt in ('text', 'json'):\n"
        "    main(['reidemeister', 'cycle(40)', '--format', fmt])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert "  cohomology dims: [1, 1]" in out
    assert json.loads(out[-2])["result"]["cohomology_dims"] == [1, 1]
    assert out[-1] == "False"


def test_mixed_scale_graded_report_reads_the_per_map_sum(capsys, tmp_path):
    # Delta_1 = diag(4e-6, 1e6) mixes scales past one relative cut; the
    # torsion sums and ranks each map on its own scale, so the report
    # reads log tau = log 2e-3 - log 1e3, the acyclic kernels and no warning
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "schema": "complex.v1", "kind": "cochain", "dims": [1, 2, 1],
        "coboundary": [[[[2e-3, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0], [1e3, 0.0]]]],
    }))
    assert main(["reidemeister", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    torsion = report["result"]["torsion"]
    assert torsion["log_scalar"] == pytest.approx(-13.122363377404328, rel=1e-12)
    assert torsion["log_scalar"] == pytest.approx(math.log(2e-3) - math.log(1e3), rel=1e-12)
    assert report["result"]["cohomology_dims"] == torsion["kernel_dims"] == [0, 0, 0]
    assert report["warnings"] == torsion["warnings"] == []
    assert main(["reidemeister", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  kernel dims = [0, 0, 0]" in out
    assert "warning" not in out


def test_import_loads_numpy_but_not_scipy():
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    probe = "import sys, torsionlab; print(sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert "'numpy'" in out and "'scipy'" not in out


def test_every_exported_name_resolves():
    # the benchmark's span tracer reads each __all__ with getattr(mod, name,
    # None), so a stale name would drop out of its tracing without an error
    modules = [torsionlab] + [
        importlib.import_module(f"torsionlab.{info.name}")
        for info in pkgutil.iter_modules(torsionlab.__path__)
    ]
    assert len(modules) == 11
    stale = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert stale == []


def test_every_error_type_is_exported_from_the_package():
    from torsionlab import errors

    assert set(errors.__all__) <= set(torsionlab.__all__)
