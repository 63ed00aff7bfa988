"""Built-in acceptance battery behind ``torsion suite``.

Ten numbered criteria, each with a pinned tolerance, covering structural
exactness, Hodge theory, oracle torsion values, flux scaling, the
duality inversion theorem with its nonzero-spectrum transport, and
determinism of the reporting layer.  The duality map's own contracts
(intertwining, Gram isometry, inverse) are exact identities of a signed
permutation; the test suite checks them entry for entry, so no
criterion bounds them.  Results are deterministic: no timestamps or wall
times enter the JSON payload (time budgets are reported as booleans).  The
seconds each criterion took, on the clock its budget runs on, ride in
``Report.timings`` and reach only the text output: criterion 7 counts
the fleet's construction and verification, and criterion 10 the whole
run.

``criterion_1`` ... ``criterion_9`` each return (passed, detail, data);
a battery builds ``bundle_fleet()`` once, for criterion 1 and for the
reports that ``fleet_reports`` collects for criteria 7-9.
``tests/test_acceptance.py`` asserts these same verdicts, so each bound
is written once.

Criterion 4 is knowingly red in its distinctness half: the characters
k and p-k of a cyclic group are complex conjugates, so their twisted
complexes have conjugate matrices and identical Laplacian spectra; any
torsion built from those spectra takes equal values at k=2 and k=3 for
p=5.  The scalar check half passes; the battery reports the rest
honestly instead of weakening the check.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import builders
from .chain_models import (
    Cochain,
    coboundary_matrices,
    pair_with_fundamental_class,
    signed_incidence,
    twisted_differential,
)
from .circle_bundle import (
    BundleData,
    DualityReport,
    build_invariant_complex,
    hopf,
    random_bundle,
    t_dualize,
    verify_t_duality,
)
from .errors import TorsionLabError
from .serialize import canonical_bytes
from .torsion_engine import (
    cohomology_dimensions,
    reidemeister_torsion,
    twisted_torsion,
)
from .workbench import Report, RunOptions, emit, parse_report, run

__all__ = ["CriterionResult", "run_suite", "SUITE_MODEL"]

SUITE_MODEL = "acceptance"


@dataclass(frozen=True)
class CriterionResult:
    ident: str
    title: str
    passed: bool
    detail: str
    data: dict
    seconds: float = field(default=0.0, compare=False)

    def to_json(self) -> dict:
        return {
            "id": self.ident,
            "title": self.title,
            "passed": self.passed,
            "detail": self.detail,
            "data": self.data,
        }


def _rel(err: float, ref: float) -> float:
    return abs(err) / max(abs(ref), 1e-300)


# ---------------------------------------------------------------------------
# shared model fleets
# ---------------------------------------------------------------------------

def _hopf_grid() -> list[tuple[str, BundleData]]:
    out = []
    for k in (1, 2, 3):
        for r in (0.5, 1.0, 2.0, 3.0):
            out.append((f"hopf(1,{k},{r})", hopf(1.0, float(k), r)))
    return out


def _random_fleet() -> list[tuple[str, BundleData]]:
    out = []
    for seed in range(100):
        top = 3 + (seed % 2)
        out.append((f"random({seed},{top})", random_bundle(seed, top)))
    return out


def bundle_fleet() -> list[tuple[str, BundleData]]:
    return _hopf_grid() + _random_fleet()


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1(fleet) -> tuple[bool, str, dict]:
    # integer square-zero for the simplicial catalog
    exact = True
    for name, K in [(f"cycle({n})", builders.cycle(n)) for n in range(3, 9)] + [
        (f"simplex_boundary({n})", builders.simplex_boundary(n)) for n in (2, 3, 4)
    ]:
        mats = [signed_incidence(K, p) for p in range(K.dim)]
        for a, b in zip(mats[1:], mats):
            if np.any(a @ b):
                exact = False
    # float residual for bundle models
    max_resid = 0.0
    for _, b in fleet:
        ic = build_invariant_complex(b)
        r1 = float(np.linalg.norm(ic.d_odd @ ic.d_even))
        r2 = float(np.linalg.norm(ic.d_even @ ic.d_odd))
        max_resid = max(max_resid, r1, r2)
    passed = exact and max_resid <= 1e-12
    detail = (
        f"integer delta^2 exact: {exact}; "
        f"max bundle square-zero residual {max_resid:.3e} (bound 1e-12)"
    )
    return passed, detail, {"integer_exact": exact, "max_bundle_residual": max_resid}


def _hodge_models() -> list[tuple[str, object]]:
    models: list[tuple[str, object]] = []
    for n in range(3, 9):
        models.append((f"cycle({n})", coboundary_matrices(builders.cycle(n))))
    for n in (3, 4):
        models.append(
            (f"simplex_boundary({n})", coboundary_matrices(builders.simplex_boundary(n)))
        )
    for k in range(1, 5):
        models.append((f"lens(5,1,{k})", builders.lens(5, 1, k)))
    return models


def criterion_2() -> tuple[bool, str, dict]:
    models = _hodge_models()
    mismatches = {}
    for name, C in models:
        kernel = list(reidemeister_torsion(C).kernel_dims)
        oracle = list(cohomology_dimensions(C))
        if kernel != oracle:
            mismatches[name] = {"kernel": kernel, "rank_nullity": oracle}
    passed = not mismatches
    detail = "Laplacian kernels match rank-nullity on all models" if passed else (
        f"mismatches: {sorted(mismatches)}"
    )
    return passed, detail, {"models": len(models), "mismatches": mismatches}


def criterion_3() -> tuple[bool, str, dict]:
    worst = 0.0
    values = {}
    for n in range(3, 9):
        tau = reidemeister_torsion(coboundary_matrices(builders.cycle(n))).scalar
        values[f"cycle({n})"] = tau
        worst = max(worst, _rel(tau - n, float(n)))
    passed = worst <= 1e-9
    return passed, f"max relative error {worst:.3e} (bound 1e-9)", {
        "values": values,
        "max_rel_error": worst,
    }


def criterion_4() -> tuple[bool, str, dict]:
    expected = 4.0 * math.sin(math.pi / 5.0) ** 2
    taus = {
        k: reidemeister_torsion(builders.lens(5, 1, k)).scalar for k in (1, 2, 3, 4)
    }
    value_err = _rel(taus[1] - expected, expected)
    value_ok = value_err <= 1e-9
    pairs_equal = []
    for a in (2, 3, 4):
        for b in (2, 3, 4):
            if a < b and _rel(taus[a] - taus[b], max(taus[a], taus[b])) <= 1e-6:
                pairs_equal.append((a, b))
    distinct_ok = not pairs_equal
    passed = value_ok and distinct_ok
    detail = f"lens(5,1,1) relative error {value_err:.3e} (bound 1e-9)"
    if not distinct_ok:
        detail += (
            f"; scalars for k in {sorted(set(sum(pairs_equal, ())))} coincide: "
            "conjugate characters give conjugate complexes with identical real "
            "spectra, so no spectrum-derived scalar separates k from 5-k"
        )
    return passed, detail, {
        "expected": expected,
        "values": {str(k): v for k, v in taus.items()},
        "value_rel_error": value_err,
        "equal_pairs": [list(p) for p in pairs_equal],
    }


def criterion_5() -> tuple[bool, str, dict]:
    worst = 0.0
    table = {}
    for name, K in [
        ("cycle(3)", builders.cycle(3)),
        ("simplex_boundary(3)", builders.simplex_boundary(3)),
        ("simplex_boundary(4)", builders.simplex_boundary(4)),
    ]:
        C = coboundary_matrices(K)
        r = reidemeister_torsion(C).log_scalar
        t = twisted_torsion(twisted_differential(C, None)).log_scalar
        err = _rel(math.exp(t) - math.exp(r), math.exp(r))
        table[name] = {"reidemeister_log": r, "twisted_log": t}
        worst = max(worst, err)
    passed = worst <= 1e-10
    return passed, f"max relative gap {worst:.3e} (bound 1e-10)", {
        "models": table,
        "max_rel_error": worst,
    }


def criterion_6() -> tuple[bool, str, dict]:
    K = builders.simplex_boundary(4)
    C = coboundary_matrices(K)
    ones = np.ones(K.n(3), dtype=np.complex128)
    h = Cochain(degree=3, coefficients=ones)
    base = twisted_torsion(twisted_differential(C, h))
    base_pair = pair_with_fundamental_class(K, h)
    worst = 0.0
    dims_zero = base.kernel_dims == (0, 0)
    pairing_exact = True
    scalings = {}
    for c in (2.0, -2.0, 0.5, -0.5, 3.0):
        ch = Cochain(degree=3, coefficients=c * ones)
        elem = twisted_torsion(twisted_differential(C, ch))
        ratio = elem.scalar / base.scalar
        worst = max(worst, _rel(ratio - abs(c), abs(c)))
        dims_zero = dims_zero and elem.kernel_dims == (0, 0)
        if pair_with_fundamental_class(K, ch) != c * base_pair:
            pairing_exact = False
        scalings[str(c)] = ratio
    passed = worst <= 1e-9 and dims_zero and pairing_exact
    detail = (
        f"max |tau(ch)/tau(h) - |c|| relative {worst:.3e} (bound 1e-9); "
        f"twisted cohomology vanishes: {dims_zero}; pairing linear exactly: {pairing_exact}"
    )
    return passed, detail, {
        "ratios": scalings,
        "max_rel_error": worst,
        "cohomology_zero": dims_zero,
        "pairing_exact": pairing_exact,
    }


def fleet_reports(fleet) -> tuple[dict[str, DualityReport], list[str]]:
    reports: dict[str, DualityReport] = {}
    failures: list[str] = []
    for name, b in fleet:
        try:
            reports[name] = verify_t_duality(b)
        except TorsionLabError as exc:
            failures.append(f"{name}: {exc}")
    return reports, failures


def criterion_7(reports, failures) -> tuple[bool, str, dict]:
    worst = max((abs(r.product_log) for r in reports.values()), default=0.0)
    hand = reports.get("hopf(1,2,1.0)")
    hand_ok = hand is not None and (
        _rel(hand.torsion.scalar - 2.0, 2.0) <= 1e-9
        and _rel(hand.dual_torsion.scalar - 0.5, 0.5) <= 1e-9
    )
    passed = not failures and worst <= 1e-8 and hand_ok
    detail = (
        f"max |log tau + log tau_dual| {worst:.3e} over {len(reports)} bundles "
        f"(bound 1e-8); hopf(1,2,1) values {'match' if hand_ok else 'MISMATCH'} 2 and 1/2"
    )
    if failures:
        detail += f"; violations: {failures[:3]}"
    return passed, detail, {
        "bundles": len(reports),
        "max_product_log": worst,
        "hand_check": hand_ok,
        "violations": failures,
    }


def criterion_8(reports, failures) -> tuple[bool, str, dict]:
    transport = max((r.spectral_transport_residual for r in reports.values()), default=0.0)
    passed = not failures and transport <= 1e-10
    detail = f"max nonzero-spectrum transport residual {transport:.3e} (bound 1e-10)"
    return passed, detail, {"spectral_transport": transport}


def criterion_9(fleet, reports) -> tuple[bool, str, dict]:
    involution_ok = True
    swap_ok = True
    for name, b in fleet:
        bb = t_dualize(t_dualize(b))
        same = (
            bb.base is b.base
            and bb.radius == b.radius
            and all(np.array_equal(x, y) for x, y in zip(bb.f_op, b.f_op))
            and all(np.array_equal(x, y) for x, y in zip(bb.h2_op, b.h2_op))
            and all(np.array_equal(x, y) for x, y in zip(bb.h3_op, b.h3_op))
        )
        if not same:
            involution_ok = False
        rep = reports.get(name)
        if rep is not None:
            e, o, de, do = rep.cohomology_dims
            if (de, do) != (o, e):
                swap_ok = False
    passed = involution_ok and swap_ok
    detail = (
        f"double dual restores every field bit-exactly: {involution_ok}; "
        f"cohomology dimensions swap parities: {swap_ok}"
    )
    return passed, detail, {"involution_exact": involution_ok, "cohomology_swap": swap_ok}


def _round_trip_cases() -> list[tuple[str, str, RunOptions]]:
    return [
        ("reidemeister", "cycle(5)", RunOptions()),
        ("reidemeister", "lens(5,1,1)", RunOptions()),
        ("twisted", "simplex_boundary(4)", RunOptions(flux="top(2)")),
        ("bundle-torsion", "hopf(1,2,1)", RunOptions()),
        ("t-dual", "hopf(1,2,3)", RunOptions()),
        ("verify-duality", "hopf(1,2,1)", RunOptions()),
        ("verify-duality", "random(7,3)", RunOptions()),
        ("deform", "hopf(1,2,1)", RunOptions(steps=4)),
    ]


def _criterion_10(first_pass_bytes: bytes) -> tuple[bool, str, dict]:
    # identical battery bytes on a second run, then report round-trips
    second = _battery_payload(_battery())
    identical = canonical_bytes(second) == first_pass_bytes

    round_trip_ok = True
    stable_ok = True
    for command, model, options in _round_trip_cases():
        report = run(command, model, options)
        blob = emit(report, "json")
        again = emit(run(command, model, options), "json")
        if blob != again:
            stable_ok = False
        if parse_report(json.loads(blob.decode("utf-8"))) != report:
            round_trip_ok = False
    passed = identical and round_trip_ok and stable_ok
    detail = (
        f"battery json byte-identical across runs: {identical}; "
        f"reports byte-stable: {stable_ok}; parse round-trip equal: {round_trip_ok}"
    )
    return passed, detail, {
        "byte_identical": identical,
        "reports_stable": stable_ok,
        "round_trip": round_trip_ok,
    }


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def _wrap(ident: str, title: str, fn, budget: float | None = None,
          since: float | None = None) -> CriterionResult:
    """Run one criterion; a crash fails it, and so does ending ``budget``
    or more seconds after ``since`` (by default, its own start)."""
    t0 = time.perf_counter() if since is None else since
    try:
        passed, detail, data = fn()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
        passed, detail, data = False, f"exception: {exc}", {}
    elapsed = time.perf_counter() - t0
    if budget is not None:
        within = elapsed < budget
        data = {**data, "within_time_budget": within}
        if not within:
            detail += f"; exceeded {budget:.0f} s budget"
            passed = False
    return CriterionResult(
        ident=ident, title=title, passed=passed, detail=detail, data=data, seconds=elapsed
    )


def _battery() -> list[CriterionResult]:
    # one fleet serves criteria 1 and 7-9.  The fleet is verified right
    # after criterion 1, so criterion 7's budget clock runs from the
    # fleet's build start over criterion 1 and the verification
    t0 = time.perf_counter()
    fleet = bundle_fleet()
    first = _wrap("1", "structural exactness", lambda: criterion_1(fleet), budget=5.0)
    reports, failures = fleet_reports(fleet)
    seventh = _wrap(
        "7",
        "torsion inversion under dualization",
        lambda: criterion_7(reports, failures),
        budget=10.0,
        since=t0,
    )
    return [
        first,
        _wrap("2", "Hodge kernels match rank-nullity", criterion_2),
        _wrap("3", "circle torsion equals vertex count", criterion_3),
        _wrap("4", "lens torsion value and character separation", criterion_4),
        _wrap("5", "zero-flux twisted torsion matches graded torsion", criterion_5),
        _wrap("6", "top-flux scaling, vanishing cohomology, linear pairing", criterion_6),
        seventh,
        _wrap("8", "spectrum transport under dualization", lambda: criterion_8(reports, failures)),
        _wrap("9", "dualization is an exact involution", lambda: criterion_9(fleet, reports)),
    ]


def _battery_payload(results: list[CriterionResult]) -> dict:
    return {"criteria": [r.to_json() for r in results]}


def run_suite() -> Report:
    """Run every acceptance criterion and wrap the outcomes in a Report."""
    t0 = time.perf_counter()
    results = _battery()
    payload = _battery_payload(results)
    first_bytes = canonical_bytes(payload)
    criteria = list(payload["criteria"])

    r10 = _wrap(
        "10",
        "determinism and report round-trip",
        lambda: _criterion_10(first_bytes),
        budget=60.0,
        since=t0,
    )
    total = time.perf_counter() - t0
    criteria.append(r10.to_json())

    all_passed = all(c["passed"] for c in criteria)
    return Report(
        command="suite",
        model=SUITE_MODEL,
        convention=None,
        kernel_tol=None,
        result={"criteria": criteria, "all_passed": all_passed},
        warnings=(),
        errors=(),
        timings={
            "wall_seconds": total,
            "criterion_seconds": {r.ident: r.seconds for r in [*results, r10]},
        },
    )
