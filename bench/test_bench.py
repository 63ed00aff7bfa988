"""Tests of the benchmark itself: oracle failures are counted, the tail
rule picks the right percentile, latencies are scaled by the reference
measured around them, and the traced counts are exact.

    python -m pytest bench -q
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Tally, import_package  # noqa: E402


@pytest.fixture(scope="module")
def tl():
    return import_package()


def _perturbed(op: workloads.Op, key: str, shift: float) -> workloads.Op:
    def run_op():
        obs = dict(op.run())
        obs[key] += shift
        return obs
    return workloads.Op(op.kind, op.label, run_op, op.check)


def test_exact_answers_pass_and_perturbed_tau_fails(tl):
    ops = [op for op in workloads.twisted_flux(random.Random(3), tl, HERE)
           if "simplex_boundary(8)" not in op.label]
    ops += [op for op in workloads.bundle_fleet(random.Random(3), tl, HERE)][:4]
    ops.append(workloads.Op("cycle", "cycle(7)", lambda: workloads._graded_run(tl, "cycle(7)"),
                            lambda o: oracles.check_cycle(7, o["log_tau"], o["kernel_dims"], o["coh_dims"])))
    good = Tally()
    for op in ops:
        good.run(op)
    assert (good.attempted, good.failed) == (len(ops), 0)
    assert 10.0 < min(good.digits) <= oracles.DIGITS_CAP

    bad = Tally()
    for op in ops:
        key = "product_log" if op.kind in ("random", "hopf") else "log_tau"
        bad.run(_perturbed(op, key, 1e-6))
    assert bad.failed == len(ops)
    assert bad.digits == []


def test_raising_op_and_unreadable_output_fail():
    def boom():
        raise RuntimeError("boom")
    tally = Tally()
    tally.run(workloads.Op("x", "raises", boom, lambda o: (True, None)))
    tally.run(workloads.Op("x", "garbled", lambda: {}, lambda o: (o["log_tau"] > 0, None)))
    assert tally.failed == 2
    assert tally.failures[0].startswith("raises: RuntimeError")


def test_refusal_probe_rules():
    check = workloads._refusal_case("missing-file", ["reidemeister", "nope.json"], "text").check
    assert check({"exit": 2, "stdout": "", "stderr": "torsion: error: no such file\n"}) == (True, None)
    assert check({"exit": 2, "stdout": "", "stderr": "usage: torsion\ntorsion: error: bad --tol\n"})[0]
    assert not check({"exit": 1, "stdout": "", "stderr": "Traceback (most recent call last):\n"})[0]
    assert not check({"exit": 0, "stdout": "log tau = 0.0\n", "stderr": ""})[0]

    overflow = workloads._refusal_case("overflow", ["reidemeister", "o.json"], "text",
                                       accepted_tau=oracles.overflow_tau(160)).check
    right = f"  log tau = {160 * math.log(10.0)!r}\n  kernel dims = [0, 0]\n"
    assert overflow({"exit": 0, "stdout": right, "stderr": ""})[0]
    wrong = "  log tau = 0.0\n  kernel dims = [1, 1]\n"
    assert not overflow({"exit": 0, "stdout": wrong, "stderr": ""})[0]


def test_tail_takes_highest_percentile_with_ten_samples_above():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct, n = stats.tail(samples)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == 10
    # one more percentile point would leave only nine above
    assert sum(s > sorted(samples)[90] for s in samples) == 9

    value, pct, n = stats.tail([float(v) for v in range(1, 34)])
    assert value == 23.0 and n == 33 and pct == pytest.approx(100 * 23 / 33)

    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 100 / 3, 3)

    # the percentile is fixed by the design count; more samples leave more above it
    more = [float(v) for v in range(1, 1001)]
    value, pct, n = stats.tail(more, design_n=100)
    assert (value, pct, n) == (900.0, 90.0, 1000)
    assert sum(s > value for s in more) == 100


def test_latencies_are_scaled_by_the_reference_around_them(monkeypatch):
    assert calibrate.scale([calibrate.REF_S]) == 1.0
    assert calibrate.scale([calibrate.REF_S, 3 * calibrate.REF_S]) == 0.5

    class SlowHost:
        """A host on which the reference takes twice its nominal time."""
        nominal = calibrate.REF_S

        def run(self) -> float:
            return 2 * calibrate.REF_S

    monkeypatch.setattr(calibrate, "Reference", SlowHost)
    ops = [workloads.Op("sleep", f"sleep {i}", lambda: {}, lambda o: (True, None)) for i in range(5)]
    wl = workloads.Workload(10, True, None, 3)
    got = worker.measure(SimpleNamespace(seconds=0.0), wl, ops, Tally())
    assert got["ops"] == 10
    assert got["scale"] == 0.5
    assert got["op_p50_s"] == 0.5 * got["raw_p50_s"]
    assert got["ops_per_s"] == pytest.approx(2.0 * got["raw_ops_per_s"])


def test_traced_counts_are_exact(tl):
    tracer = Tracer()
    tracer.install()
    try:
        for module in (tl.spectral, tl.torsion_engine, tl.circle_bundle):
            assert hasattr(module.hermitian_spectrum, "__wrapped__")
        tracer.reset()
        tl.circle_bundle.verify_t_duality(tl.circle_bundle.random_bundle(4242, 4))
        assert tracer.counters["spectral.calls"] == 12
        assert tracer.counters["circle_bundle.invariant_builds"] == 3
        assert tracer.counters["circle_bundle.verify_calls"] == 1

        for expr, degrees in (("cycle(9)", 2), ("simplex_boundary(5)", 5)):
            C = tl.chain_models.coboundary_matrices(tl.builders.from_expression(expr))
            tracer.reset()
            tl.torsion_engine.reidemeister_torsion(C)
            assert tracer.counters["spectral.calls"] == 2 * degrees
            layers = tracer.layers()
            assert layers["torsion_engine"].calls == 1
            assert layers["spectral"].s <= layers["torsion_engine"].s
            assert layers["torsion_engine"].self_s == layers["torsion_engine"].s - layers["spectral"].s
    finally:
        tracer.uninstall()
    assert not hasattr(tl.torsion_engine.hermitian_spectrum, "__wrapped__")
    assert not hasattr(tl.circle_bundle.hermitian_spectrum, "__wrapped__")


def test_errors_are_counted_where_they_leave(tl):
    tracer = Tracer()
    tracer.install()
    try:
        with pytest.raises(tl.builders.UnknownBuilder):
            tl.builders.from_expression("torus(3)")
    finally:
        tracer.uninstall()
    assert tracer.layers()["builders"].errors == 1
    assert tracer.layers()["chain_models"].errors == 0


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |        350 |   torsionlab.builders",
        "import time:        70 |         70 |           numpy.f2py",
        "import time:       400 |        470 |         scipy._lib",
        "import time:        30 |        500 |       scipy.linalg",
        "import time:        20 |        520 |     torsionlab.spectral",
        "import time:        10 |        880 | torsionlab",
    ])
    got = run.parse_importtime(stderr)
    assert got == {"import.numpy_s": 300e-6, "import.scipy_s": 500e-6,
                   "import.torsionlab_self_s": 80e-6}
