"""Bundle models, duality maps, and the torsion-inversion check.

The two-block Hopf-type model is solvable by hand: the even differential
is r * h2 on the single even generator pair and the odd one is f / r, so
the twisted torsion is r^2 |h2 / f| and dualizing inverts it.
"""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import (
    BundleData,
    Cochain,
    DualityViolation,
    GradedCochainComplex,
    InvalidFlux,
    ParityMismatch,
    PathInvalid,
    ShapeMismatch,
    ValidationError,
    build_invariant_complex,
    coboundary_matrices,
    cup_operator,
    deformation_experiment,
    gram_scale_path,
    hopf,
    minimal_model,
    random_bundle,
    t_duality_matrix,
    t_dualize,
    twisted_torsion,
    verify_t_duality,
)
from torsionlab import circle_bundle, torsion_engine
from torsionlab.builders import simplex_boundary
from torsionlab.chain_models import fold
from torsionlab.circle_bundle import _slot_dims
from torsionlab.serialize import canonical_bytes
from torsionlab.suite import bundle_fleet


def _ladder_bundle() -> BundleData:
    # dims (1,1,1,1,1) with flux blocks only at source degrees 0 and 1:
    # every closure product overflows the grading, so any coefficients
    # give a valid bundle, and all four block families are populated
    def pair(a0, a1):
        return {
            0: np.array([[a0]], dtype=np.complex128),
            1: np.array([[a1]], dtype=np.complex128),
        }

    return BundleData(
        base=minimal_model((1, 1, 1, 1, 1)),
        f_op=pair(2.0, 0.7),
        h2_op=pair(1.3, -0.4),
        h3_op=pair(0.9, 1.1),
        radius=1.7,
    )


def _tau(b: BundleData):
    return twisted_torsion(build_invariant_complex(b))


def _sphere_bundle(f: float, h2: float, r: float) -> BundleData:
    # over the boundary of the 3-simplex (S^2, where delta != 0), with F
    # and H2 cup products by f and h2 times the indicator of one triangle
    K = simplex_boundary(3)
    omega = np.zeros(K.n(2))
    omega[0] = 1.0
    return BundleData(
        base=coboundary_matrices(K),
        f_op={0: cup_operator(K, Cochain(2, f * omega), 0)},
        h2_op={0: cup_operator(K, Cochain(2, h2 * omega), 0)},
        h3_op=None,
        radius=r,
    )


# ---------------------------------------------------------------------------
# hand-solved torsion values
# ---------------------------------------------------------------------------

def test_hopf_torsion_formula():
    for f, h2, r in [(1, 2, 1), (1, 2, 3), (2, 3, 0.5), (1, 1, 2), (3, 1, 1)]:
        tau = _tau(hopf(f, h2, r)).scalar
        assert tau == pytest.approx(r * r * abs(h2 / f), rel=1e-12)


def test_hopf_unit_case_is_exact():
    elem = _tau(hopf(1, 2, 1))
    assert elem.scalar == 2.0
    assert elem.kernel_dims == (0, 0)
    dual = _tau(t_dualize(hopf(1, 2, 1)))
    assert dual.scalar == 0.5


def test_hopf_duality_report_is_exactly_zero():
    rep = verify_t_duality(hopf(1, 2, 1))
    assert rep.product_log == 0.0
    assert rep.spectral_transport_residual == 0.0
    assert rep.harmonic_transport_residual == 0.0
    assert rep.cohomology_dims == (0, 0, 0, 0)
    j = rep.to_json()
    assert j["tau_times_tau_dual"] == 1.0
    assert j["cohomology_dims"] == {"even": 0, "odd": 0, "dual_even": 0, "dual_odd": 0}


def test_hopf_grid_products_cancel():
    for k in (1, 2, 3):
        for r in (0.5, 1.0, 2.0, 3.0):
            rep = verify_t_duality(hopf(1, k, r))
            assert abs(rep.product_log) <= 1e-12


def test_ladder_bundle_duality():
    rep = verify_t_duality(_ladder_bundle())
    assert abs(rep.product_log) <= 1e-12
    assert rep.spectral_transport_residual <= 1e-10
    assert rep.harmonic_transport_residual <= 1e-12
    # one surviving class per parity on each side
    assert rep.cohomology_dims == (1, 1, 1, 1)


def test_random_fleet_sample():
    for seed in range(10):
        b = random_bundle(seed, 3 + seed % 2)
        rep = verify_t_duality(b)
        assert abs(rep.product_log) <= 1e-10


_RADIUS = st.floats(math.log(1e-6), math.log(1e6)).map(math.exp)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), top=st.integers(2, 5), radius=_RADIUS)
def test_random_bundle_torsions_are_inverse_at_any_radius(seed, top, radius):
    b = replace(random_bundle(seed, top), radius=radius)
    assert abs(verify_t_duality(b).product_log) <= 1e-8


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    f=st.sampled_from([-3.0, -1.0, 0.5, 1.0, 2.0]),
    h2=st.sampled_from([-2.0, 0.25, 1.0, 3.0]),
    radius=_RADIUS,
)
def test_hopf_torsions_are_inverse_at_any_radius(f, h2, radius):
    rep = verify_t_duality(hopf(f, h2, radius))
    assert abs(rep.product_log) <= 1e-8
    assert rep.torsion.scalar == pytest.approx(radius**2 * abs(h2 / f), rel=1e-10)


@pytest.mark.xfail(
    strict=True,
    reason="the relative kernel cut (1e-9 times the largest eigenvalue) swallows the small "
    "eigenvalue of the mixed-scale Laplacian diag((r h2)^2, (f / r)^2)",
)
@pytest.mark.parametrize("radius", [1e-3, 1e3])
def test_mixed_scale_hopf_kernel_dims_match_rank_nullity(radius):
    # rank-nullity gives (0, 0); the Laplacian kernel read today is (1, 1)
    ic = build_invariant_complex(hopf(1, 2, radius))
    assert twisted_torsion(ic).kernel_dims == torsion_engine.twisted_cohomology_dimensions(ic)


@pytest.mark.xfail(
    strict=True,
    reason="the relative kernel cut (1e-9 times the largest eigenvalue) swallows the small "
    "eigenvalue of the mixed-scale Laplacian Delta_1 = diag(4e-6, 1e6)",
)
def test_mixed_scale_graded_torsion_is_the_per_map_sum():
    # acyclic, so log tau = log 2e-3 - log 1e3; today the weighted sum
    # reads -6.907755278982137 with kernel dims (0, 1, 0)
    C = GradedCochainComplex(
        dims=(1, 2, 1),
        coboundary=(np.array([[2e-3], [0.0]]), np.array([[0.0, 1e3]])),
    )
    torsion = torsion_engine.reidemeister_torsion(C)
    assert torsion.log_scalar == pytest.approx(-13.122363377404328, rel=1e-12)
    assert torsion.kernel_dims == (0, 0, 0)


def test_verify_factors_each_gram_once(factorizations, lower_inverses):
    b = random_bundle(4242, 4)
    factorizations.clear()
    verify_t_duality(b)
    # the base factored its Grams when it was built; the three invariant
    # builds take their parity factors from the base's invariant records,
    # and the twelve solves reuse those
    assert len(factorizations) == 0
    # the model and its dual solve the same two parity Grams, and each
    # is inverted once
    assert len(lower_inverses) == 2
    assert len({id(L) for L in lower_inverses}) == 2


def test_verify_reuses_the_base_layout(folds, gram_checks):
    b = random_bundle(4242, 4)
    # the base checks its Grams once, when it is built
    assert len(gram_checks) == len(b.base.dims)
    gram_checks.clear()
    verify_t_duality(b)
    # the base folds its coboundary once and the model its H3, F and H2
    # once, on first use; the dual takes the model's folds
    assert len(folds) == 1 + 3
    folds.clear()
    verify_t_duality(b)
    assert len(folds) == 0
    assert gram_checks == []


def test_model_dual_and_double_dual_share_folds_and_gram_records():
    b = random_bundle(4242, 4)
    d = t_dualize(b)
    dd = t_dualize(d)
    (h3, f, h2), (d_h3, d_f, d_h2), (dd_h3, dd_f, dd_h2) = b._folds, d._folds, dd._folds
    assert d_h3 is h3 and d_f is h2 and d_h2 is f
    assert dd_h3 is h3 and dd_f is f and dd_h2 is h2
    # the folds handed over are those the dual would fold itself
    dims = d.base.dims
    fresh = (fold(dims, d.h3_op, 3), fold(dims, d.f_op, 2), fold(dims, d.h2_op, 2))
    for handed, own in zip(d._folds, fresh):
        assert all(np.array_equal(x, y) for x, y in zip(handed, own))
    records = [build_invariant_complex(m)._gram_factors for m in (b, d, dd)]
    assert all(r[0] is records[0][0] and r[1] is records[0][1] for r in records)
    assert records[0] == b._invariant_grams


def test_invariant_complexes_over_a_gram_less_base_carry_no_gram_record(lower_inverses):
    # None is the identity Gram on invariant complexes too: a Hopf model and
    # its dual keep no record, and a verify forms no triangular inverse
    b = hopf(1.0, 2.0, 0.7)
    assert b._invariant_grams == (None, None)
    for model in (b, t_dualize(b)):
        ic = build_invariant_complex(model)
        assert ic._gram_factors is None and ic.gram_even is None and ic.gram_odd is None
    verify_t_duality(b)
    assert lower_inverses == []


def test_cached_layouts_are_read_only():
    for b in (random_bundle(4242, 4), hopf(1.0, 2.0, 0.7)):
        arrays = [a for pair in b._folds for a in pair]
        records = [factor for factor in b._invariant_grams if factor is not None]
        arrays += [a for factor in records for a in (factor.gram, factor.lower)]
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


def test_replace_folds_again_and_matches_a_model_built_from_scratch(folds):
    b = random_bundle(4242, 4)
    build_invariant_complex(b)
    dims, grams = b.base.dims, list(b.base.gram)
    f3, h3_half = [3.0 * m for m in b.f_op], [0.5 * m for m in b.h3_op]
    scaled = [2.5 * g for g in grams]
    base0 = [2.5 * grams[0]] + grams[1:]

    def scratch(gram, f_op, h3_op):
        return BundleData(minimal_model(dims, gram=gram), f_op, b.h2_op, h3_op, b.radius)

    # (replaced model, the same model built from scratch, folds it takes)
    cases = [
        (replace(b, f_op=tuple(f3)), scratch(grams, f3, b.h3_op), 3),
        (replace(b, h3_op=tuple(h3_half)), scratch(grams, b.f_op, h3_half), 3),
        (replace(b, base=b.base.with_gram(scaled)), scratch(scaled, b.f_op, b.h3_op), 1 + 3),
        (gram_scale_path(b, degree=0, factor=2.5)(1.0), scratch(base0, b.f_op, b.h3_op), 1 + 3),
    ]
    for changed, built, expected_folds in cases:
        folds.clear()
        tau = _tau(changed)
        assert len(folds) == expected_folds
        assert all(x is not y for x, y in zip(changed._folds, b._folds))
        assert tau.log_scalar == _tau(built).log_scalar


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), top=st.integers(2, 5), radius=_RADIUS)
def test_warm_and_fresh_bundles_verify_to_the_same_bytes(seed, top, radius):
    def fresh():
        return replace(random_bundle(seed, top), radius=radius)

    warm = fresh()
    verify_t_duality(warm)
    t_dualize(t_dualize(warm))
    for _ in range(2):
        assert canonical_bytes(verify_t_duality(warm).to_json()) == canonical_bytes(
            verify_t_duality(fresh()).to_json()
        )


def test_traced_verify_of_a_warm_bundle_counts_every_solve_and_build(monkeypatch):
    # the benchmark's span tracer, loaded from its file
    spec = importlib.util.spec_from_file_location(
        "_bench_spans", Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    b = random_bundle(4242, 4)
    verify_t_duality(b)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.reset()
        circle_bundle.verify_t_duality(b)
    finally:
        tracer.uninstall()
    assert tracer.counters["spectral.calls"] == 12
    assert tracer.counters["circle_bundle.invariant_builds"] == 3


def _bundles():
    for seed in range(100):
        for top in (3, 4):
            yield random_bundle(seed, top)
    for f, h2, r in ((1.0, 2.0, 0.7), (2.0, -0.5, 1.5), (-3.0, 0.25, 4.0)):
        yield hopf(f, h2, r)


def test_assembled_parity_factors_equal_cholesky_bit_for_bit():
    # the suite fleet and Hopf models: every factor assembled from block
    # factors is the one Cholesky gives for the assembled Gram
    checked = 0
    for b in _bundles():
        factors = list(b.base._parity[1] or ())
        for ic in (build_invariant_complex(b), build_invariant_complex(t_dualize(b))):
            factors.extend(ic._gram_factors or ())
        for factor in factors:
            L = np.linalg.cholesky(factor.gram) if factor.gram.size else factor.gram
            assert L.dtype == factor.lower.dtype
            assert L.tobytes() == factor.lower.tobytes()
        checked += len(factors)
    # Hopf models have a Gram-less base, so they carry no record
    assert checked == 200 * 6


def test_random_bundle_is_deterministic():
    a, b = random_bundle(7), random_bundle(7)
    assert a.base.dims == b.base.dims
    assert a.radius == b.radius
    for x, y in zip(a.f_op + a.h2_op + a.h3_op, b.f_op + b.h2_op + b.h3_op):
        assert np.array_equal(x, y)
    assert random_bundle(8).base.dims != a.base.dims or random_bundle(8).radius != a.radius


def test_random_bundle_rejects_degenerate_top():
    with pytest.raises(ValidationError):
        random_bundle(0, top_degree=0)


# ---------------------------------------------------------------------------
# duality maps
# ---------------------------------------------------------------------------

def test_sign_rule_is_the_unique_intertwiner():
    # scan all 16 sign assignments for the two block constants of T_0 and
    # T_1; only the implemented rule and its global negation intertwine,
    # everything else misses by a wide margin
    b = _ladder_bundle()
    ic = build_invariant_complex(b)
    icd = build_invariant_complex(t_dualize(b))

    def candidate(parity, s_tr, s_bl):
        a, bb = _slot_dims(ic, parity)
        out = np.zeros((a + bb, a + bb), dtype=np.complex128)
        out[:bb, a:] = s_tr * np.eye(bb)
        out[bb:, :a] = s_bl * np.eye(a)
        return out

    passing = []
    for p in (1.0, -1.0):
        for q in (1.0, -1.0):
            for u in (1.0, -1.0):
                for v in (1.0, -1.0):
                    t0 = candidate(0, p, q)
                    t1 = candidate(1, u, v)
                    res = max(
                        np.linalg.norm(t1 @ ic.d_even - icd.d_odd @ t0),
                        np.linalg.norm(t0 @ ic.d_odd - icd.d_even @ t1),
                    )
                    if res < 1e-12:
                        passing.append(((p, q), (u, v)))
                    else:
                        assert res > 0.1
    assert sorted(passing) == [
        ((-1.0, 1.0), (1.0, -1.0)),
        ((1.0, -1.0), (-1.0, 1.0)),
    ]
    assert np.array_equal(t_duality_matrix(ic, 0), candidate(0, 1.0, -1.0))
    assert np.array_equal(t_duality_matrix(ic, 1), candidate(1, -1.0, 1.0))


def test_duality_map_contracts_hold_exactly():
    # T is a signed permutation, so it intertwines the differentials, is a
    # Gram isometry and is inverted by the dual side's T, entry for entry
    models = [b for _, b in bundle_fleet()] + [_ladder_bundle()]
    models += [_sphere_bundle(*fhr) for fhr in ((1, 2, 1), (2, 3, 0.7), (3, 1, 1.3))]
    for b in models:
        ic, icd = build_invariant_complex(b), build_invariant_complex(t_dualize(b))
        t0, t1 = t_duality_matrix(ic, 0), t_duality_matrix(ic, 1)
        assert np.array_equal(t1 @ ic.d_even, icd.d_odd @ t0)
        assert np.array_equal(t0 @ ic.d_odd, icd.d_even @ t1)
        # a None Gram is the identity
        gram_even, gram_odd, dual_even, dual_odd = (
            np.eye(n) if g is None else g
            for g, n in ((ic.gram_even, ic.even_dim), (ic.gram_odd, ic.odd_dim),
                         (icd.gram_even, icd.even_dim), (icd.gram_odd, icd.odd_dim))
        )
        assert np.array_equal(t0.T @ dual_odd @ t0, gram_even)
        assert np.array_equal(t1.T @ dual_even @ t1, gram_odd)
        assert np.array_equal(t_duality_matrix(icd, 1) @ t0, np.eye(ic.even_dim))
        assert np.array_equal(t_duality_matrix(icd, 0) @ t1, np.eye(ic.odd_dim))
    assert len(models) == 112 + 1 + 3


def test_dual_side_map_inverts_exactly():
    ic = build_invariant_complex(_ladder_bundle())
    icd = build_invariant_complex(t_dualize(_ladder_bundle()))
    s_t = t_duality_matrix(icd, 1) @ t_duality_matrix(ic, 0)
    assert np.array_equal(s_t, np.eye(ic.even_dim))
    s_t = t_duality_matrix(icd, 0) @ t_duality_matrix(ic, 1)
    assert np.array_equal(s_t, np.eye(ic.odd_dim))


def test_parity_must_be_binary():
    ic = build_invariant_complex(hopf(1, 2, 1))
    with pytest.raises(ParityMismatch):
        t_duality_matrix(ic, 2)
    with pytest.raises(ParityMismatch):
        t_duality_matrix(ic, -1)


# ---------------------------------------------------------------------------
# the involution
# ---------------------------------------------------------------------------

def test_dualize_swaps_flux_and_inverts_radius():
    b = hopf(1, 2, 3)
    d = t_dualize(b)
    assert np.array_equal(d.f_op[0], b.h2_op[0])
    assert np.array_equal(d.h2_op[0], b.f_op[0])
    assert d.radius == pytest.approx(1.0 / 3.0)
    assert d.base is b.base


def test_double_dual_is_bit_exact():
    # 1/(1/49) != 49 in floats, so the round trip must carry the original
    # radius through rather than recompute it
    assert 1.0 / (1.0 / 49.0) != 49.0
    b = hopf(1, 2, 49.0)
    dd = t_dualize(t_dualize(b))
    assert dd.radius == 49.0
    assert dd.radius == b.radius
    for x, y in zip(dd.f_op + dd.h2_op + dd.h3_op, b.f_op + b.h2_op + b.h3_op):
        assert np.array_equal(x, y)


def test_cohomology_swaps_parity_under_duality():
    b = _ladder_bundle()
    rep = verify_t_duality(b)
    even, odd, dual_even, dual_odd = rep.cohomology_dims
    assert (even, odd) == (dual_odd, dual_even)


# ---------------------------------------------------------------------------
# validation and failure modes
# ---------------------------------------------------------------------------

def test_square_zero_failure_names_the_identity():
    bad = BundleData(
        base=minimal_model((1, 1, 1, 1, 1)),
        f_op={0: np.array([[1.0]]), 2: np.array([[2.0]])},
        h2_op={0: np.array([[1.5]])},
        h3_op=None,
        radius=1.0,
    )
    with pytest.raises(InvalidFlux, match=r"dH3\^2 \+ F\.H2 \(even source\)"):
        build_invariant_complex(bad)


def test_operator_shape_checks():
    base = minimal_model((1, 1, 1, 1, 1))
    with pytest.raises(ShapeMismatch, match=r"F\[0\] has shape \(2, 1\)"):
        BundleData(base=base, f_op={0: np.ones((2, 1))}, h2_op=None, h3_op=None, radius=1.0)
    # source degree 3 would land in degree 5, so only an empty block fits
    with pytest.raises(ShapeMismatch, match=r"expected \(0, 1\)"):
        BundleData(base=base, f_op={3: np.ones((1, 1))}, h2_op=None, h3_op=None, radius=1.0)
    with pytest.raises(ShapeMismatch, match="outside the grading"):
        BundleData(base=base, f_op={9: np.ones((1, 1))}, h2_op=None, h3_op=None, radius=1.0)


def test_radius_must_be_positive_and_finite():
    base = minimal_model((1, 0, 1))
    for r in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            BundleData(base=base, f_op=None, h2_op=None, h3_op=None, radius=r)


@pytest.mark.parametrize("inverse", [3.0, 0.0, -1.0, -0.5, float("inf"), float("nan")])
def test_inconsistent_radius_inverse_is_refused(inverse):
    # radius_inverse=3 with radius 2 once gave tau = 4/3 instead of 8
    b = hopf(1, 2, 2)
    with pytest.raises(ValidationError, match="radius_inverse"):
        BundleData(b.base, b.f_op, b.h2_op, b.h3_op, radius=2.0, radius_inverse=inverse)
    ok = BundleData(b.base, b.f_op, b.h2_op, b.h3_op, radius=2.0, radius_inverse=0.5)
    assert _tau(ok).scalar == pytest.approx(8.0, rel=1e-12)


def test_base_must_be_graded_complex():
    with pytest.raises(ValidationError):
        BundleData(base=object(), f_op=None, h2_op=None, h3_op=None, radius=1.0)


def test_violation_raised_when_tolerance_is_unreachable(monkeypatch):
    # |0 + 0| > -1 always, so the negative tolerance forces the raise path
    monkeypatch.setattr(circle_bundle, "DUALITY_TOL", -1.0)
    with pytest.raises(DualityViolation, match="log tau"):
        verify_t_duality(hopf(1, 2, 1))


# ---------------------------------------------------------------------------
# deformation experiments
# ---------------------------------------------------------------------------

def test_gram_scale_drift_is_flat():
    rep = deformation_experiment(gram_scale_path(hopf(1, 2, 1), degree=0, factor=2.0), 4)
    assert rep.parameters == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert len(rep.log_scalars) == 5
    assert rep.max_abs_log_drift <= 1e-12
    assert rep.max_rel_scalar_drift <= 1e-12
    assert "not asserted" in rep.note
    j = rep.to_json()
    assert j["scalars"][0] == pytest.approx(2.0, rel=1e-12)


def test_deformation_rejects_bad_paths():
    with pytest.raises(PathInvalid):
        deformation_experiment(gram_scale_path(hopf(1, 2, 1)), 0)
    with pytest.raises(PathInvalid):
        gram_scale_path(hopf(1, 2, 1), degree=7)

    def broken(t):
        if t > 0.5:
            raise ValueError("boom")
        return hopf(1, 2, 1)

    with pytest.raises(PathInvalid, match="parameter"):
        deformation_experiment(broken, 2)


def test_radius_path_moves_torsion_but_keeps_duality():
    def at(t):
        return hopf(1, 2, 1.0 + t)

    rep = deformation_experiment(at, 2)
    assert rep.max_abs_log_drift > 0.1
    for t in (0.0, 0.5, 1.0):
        assert abs(verify_t_duality(at(t)).product_log) <= 1e-12


def test_transport_reads_the_spectra_the_torsions_solved(eigensolves):
    # per torsion, the two Laplacians and the two w* w are solved for values
    # only; the harmonic comparison then solves each element's two
    # Laplacians with vectors, and the transport solves nothing
    b = random_bundle(4242, 4)
    report = verify_t_duality(b)
    assert [kind for _, kind in eigensolves] == ["values"] * 8 + ["vectors"] * 4
    # the transported spectra are the torsions' own, the positive spectra
    # of the very w* w matrices a fresh solve gives
    for elem, model in ((report.torsion, b), (report.dual_torsion, t_dualize(b))):
        blocks = torsion_engine._blocks(build_invariant_complex(model))
        assert len(elem.square_spectra) == len(blocks) == 2
        for spectrum, (up, _, _) in zip(elem.square_spectra, blocks):
            fresh = torsion_engine.hermitian_spectrum(up, vectors=False)
            assert np.array_equal(spectrum, fresh.positive_eigenvalues)