"""Golden outputs: the canonical report.v1 bytes of a fixed command matrix.

A refactor must leave every one of these byte-identical.  A change that
moves a number on purpose re-records them and says why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from torsionlab.workbench import RunOptions, emit, run

GOLDEN = Path(__file__).resolve().parent / "golden"

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
        for n in (4, 6)
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
    assert recorded == {case_name(*case) for case in CASES}


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / case_name(*case)).write_bytes(render(*case))
    print(f"recorded {len(CASES)} golden reports in {GOLDEN}")
