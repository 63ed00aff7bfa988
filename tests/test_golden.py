"""Golden outputs: the canonical report.v1 bytes of a fixed command matrix,
plus ``torsion suite --format json`` in ``suite.json`` (which
``test_criterion_10_suite_determinism`` compares its first run against).

A refactor must leave every one of these byte-identical.  A change that
moves a number on purpose re-records them and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py

The recorder compares every new report with the recorded one first and
writes nothing, exiting 1, when anything but roundoff moved: a non-float
field (kernel dims, warnings, conventions, digests, list lengths, keys),
a ``log_scalar`` by more than 1e-12 absolute, or any other float by more
than 1e-12 relative while above 1e-12 absolute.  Numbers printed into a
string (a criterion's ``detail``) are floats too: two strings whose text
around the numbers is the same are compared number by number under the
same rule.  It prints the largest shift per file.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from torsionlab.suite import run_suite
from torsionlab.workbench import RunOptions, emit, run

GOLDEN = Path(__file__).resolve().parent / "golden"
SUITE = GOLDEN / "suite.json"

_BUNDLES = [
    ("hopf(2,-0.5,1.5)", RunOptions()),
    ("random(7,3)", RunOptions()),
    ("random(123,4)", RunOptions()),
    ("random()", RunOptions(seed=5)),
    ("hopf(1,2)", RunOptions(radius=0.7)),
]

CASES = (
    [
        ("reidemeister", model, RunOptions())
        for model in (
            "cycle(5)",
            "cycle(40)",
            "lens(5,1,1)",
            "lens(7,1,3)",
            "simplex_boundary(5)",
            "minimal_sphere(3)",
        )
    ]
    + [
        ("twisted", f"simplex_boundary({n})", RunOptions(flux=flux))
        for n in (4, 6, 8)
        for flux in ("top(2)", "top(1.5-0.5j)")
    ]
    + [
        (command, model, options)
        for command in ("bundle-torsion", "t-dual", "verify-duality", "deform")
        for model, options in _BUNDLES
    ]
)


def case_name(command: str, model: str, options: RunOptions) -> str:
    parts = [command, model]
    if options.flux != "zero":
        parts.append(f"flux={options.flux}")
    if options.seed is not None:
        parts.append(f"seed={options.seed}")
    if options.radius is not None:
        parts.append(f"radius={options.radius}")
    keep = "".join(c if c.isalnum() or c in "=.-" else "_" for c in "__".join(parts))
    return keep + ".json"


def render(command: str, model: str, options: RunOptions) -> bytes:
    return emit(run(command, model, options), "json")


@pytest.mark.parametrize(
    "command,model,options",
    CASES,
    ids=[case_name(*case)[:-5] for case in CASES],
)
def test_report_bytes_match_golden(command, model, options):
    expected = (GOLDEN / case_name(command, model, options)).read_bytes()
    assert render(command, model, options) == expected


def test_golden_directory_has_no_strays():
    recorded = {p.name for p in GOLDEN.glob("*.json")}
    assert recorded == {case_name(*case) for case in CASES} | {SUITE.name}


DRIFT_TOL = 1e-12
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def drift(old, new, path: str = "") -> tuple[tuple[float, str], list[str]]:
    """Largest float shift from ``old`` to ``new`` with where it is, and
    the changes that are more than roundoff."""
    if isinstance(old, float) and isinstance(new, float):
        shift = abs(new - old)
        if path.endswith(".log_scalar"):
            bad = shift > DRIFT_TOL
        else:
            bad = shift > DRIFT_TOL and shift > DRIFT_TOL * abs(old)
        return (shift, path), [f"{path}: {old!r} -> {new!r}"] if bad else []
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            return (0.0, path), [f"{path}: keys {sorted(old)} -> {sorted(new)}"]
        pairs = [(old[k], new[k], f"{path}.{k}") for k in old]
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return (0.0, path), [f"{path}: length {len(old)} -> {len(new)}"]
        pairs = [(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    elif (isinstance(old, str) and isinstance(new, str) and old != new
          and _NUMBER.split(old) == _NUMBER.split(new)):
        pairs = [
            (float(a), float(b), f"{path}<{i}>")
            for i, (a, b) in enumerate(zip(_NUMBER.findall(old), _NUMBER.findall(new)))
        ]
    else:
        same = type(old) is type(new) and old == new
        return (0.0, path), [] if same else [f"{path}: {old!r} -> {new!r}"]
    largest, problems = (0.0, path), []
    for a, b, where in pairs:
        shift, bad = drift(a, b, where)
        largest = max(largest, shift)
        problems += bad
    return largest, problems


def test_recorder_accepts_roundoff_and_refuses_the_rest():
    old = {"torsion": {"log_scalar": 1.5, "scalar": 4.48, "kernel_dims": [1, 0]},
           "residual": 1e-15, "warnings": []}

    def moved(**changes):
        new = json.loads(json.dumps(old))
        for key, value in changes.items():
            (new["torsion"] if key in new["torsion"] else new)[key] = value
        return drift(old, new)

    (shift, where), problems = moved(log_scalar=1.5 + 8e-13, scalar=4.48 * (1 + 9e-13),
                                     residual=5e-13)
    assert problems == []
    assert where == ".torsion.scalar" and shift == pytest.approx(4.48 * 9e-13, rel=1e-3)
    assert moved(log_scalar=1.5 + 2e-12)[1] == [".torsion.log_scalar: 1.5 -> 1.500000000002"]
    assert len(moved(scalar=4.48 * (1 + 3e-12))[1]) == 1
    assert len(moved(residual=2e-12)[1]) == 1
    assert moved(kernel_dims=[0, 0])[1] == [".torsion.kernel_dims[0]: 1 -> 0"]
    assert moved(kernel_dims=[1])[1] == [".torsion.kernel_dims: length 2 -> 1"]
    assert moved(warnings=["gap"])[1] == [".warnings: length 0 -> 1"]
    assert len(drift(old, {**old, "extra": 1})[1]) == 1

    # numbers printed into a detail string are compared as floats
    detail = {"detail": "max residual 4.085e-16 over 112 bundles (bound 1e-10)"}

    def reworded(text):
        return drift(detail, {"detail": text})

    (shift, where), problems = reworded("max residual 5.085e-16 over 112 bundles (bound 1e-10)")
    assert problems == [] and where == ".detail<0>"
    assert shift == pytest.approx(1e-16, rel=1e-3)
    assert len(reworded("min residual 4.085e-16 over 112 bundles (bound 1e-10)")[1]) == 1
    assert reworded("max residual 1.000e-06 over 112 bundles (bound 1e-10)")[1] == [
        ".detail<0>: 4.085e-16 -> 1e-06"
    ]
    assert len(reworded("max residual 4.085e-16 over 113 bundles (bound 1e-10)")[1]) == 1
    assert len(reworded("max residual 4.085e-16 over 112 bundles")[1]) == 1


def record() -> int:
    GOLDEN.mkdir(exist_ok=True)
    fresh = {case_name(*case): render(*case) for case in CASES}
    fresh[SUITE.name] = emit(run_suite(), "json")
    refused = False
    for name, payload in fresh.items():
        target = GOLDEN / name
        if not target.exists():
            print(f"{name}: new")
            continue
        recorded = target.read_bytes()
        if recorded == payload:
            continue
        (shift, where), problems = drift(json.loads(recorded), json.loads(payload))
        print(f"{name}: largest shift {shift:.2e} at {where}")
        for problem in problems:
            print(f"  more than roundoff: {problem}")
        refused = refused or bool(problems)
    if refused:
        print("refused: nothing written", file=sys.stderr)
        return 1
    for name, payload in fresh.items():
        (GOLDEN / name).write_bytes(payload)
    print(f"recorded {len(fresh)} golden reports in {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(record())
