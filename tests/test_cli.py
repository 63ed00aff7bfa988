"""Exit codes, output formats, and argument handling of the front end."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import torsionlab
from torsionlab.cli import build_parser, main


def test_reidemeister_text(capsys):
    assert main(["reidemeister", "cycle(5)"]) == 0
    out = capsys.readouterr().out
    assert "log tau" in out
    import re

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


def test_suite_rejects_tol():
    with pytest.raises(SystemExit) as exc:
        main(["suite", "--tol", "1e-6"])
    assert exc.value.code == 2


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
    ],
    ids=["hopf-nan", "hopf-inf", "random-float-seed", "random-negative-seed",
         "missing-file", "lens-overflow", "cycle-oversize", "simplex-boundary-oversize"],
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


def test_import_loads_numpy_but_not_scipy():
    src = str(Path(torsionlab.__file__).resolve().parents[1])
    probe = "import sys, torsionlab; print(sorted({m.split('.')[0] for m in sys.modules}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert "'numpy'" in out and "'scipy'" not in out
