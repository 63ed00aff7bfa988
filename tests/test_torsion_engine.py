"""Torsion scalars against independently derived oracles.

Circle: the vertex Laplacian of the n-cycle has pseudo-determinant
prod_{j=1}^{n-1} 2(1 - cos(2 pi j / n)) = n^2, so the torsion is n.
Lens: four 1x1 coboundaries give the alternating product
|zeta^k - 1| * |zeta^(k qbar) - 1| directly.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    TwistedComplex,
    coboundary_matrices,
    cohomology_dimensions,
    gram_adjoint,
    laplacians,
    reidemeister_torsion,
    twisted_cohomology_dimensions,
    twisted_differential,
    twisted_torsion,
)
from torsionlab import spectral
from torsionlab.builders import cycle, lens, minimal_sphere, simplex_boundary
from torsionlab.errors import ValidationError
from torsionlab.torsion_engine import REIDEMEISTER_TAG, TWISTED_TAG, TorsionElement


def _cycle_pseudodet_oracle(n: int) -> float:
    # eigenvalues of the n-cycle graph Laplacian are 2 - 2cos(2 pi j / n)
    value = 1.0
    for j in range(1, n):
        value *= 2.0 - 2.0 * math.cos(2.0 * math.pi * j / n)
    return value


def _lens_torsion_oracle(p: int, q: int, k: int) -> float:
    zeta = cmath.exp(2j * cmath.pi / p)
    qbar = pow(q, -1, p)
    return abs(zeta**k - 1.0) * abs(zeta ** (k * qbar) - 1.0)


# ---------------------------------------------------------------------------
# graded torsion
# ---------------------------------------------------------------------------

def test_cycle_oracle_is_n_squared():
    for n in range(3, 9):
        assert _cycle_pseudodet_oracle(n) == pytest.approx(n * n, rel=1e-12)


def test_cycle_torsion_equals_vertex_count():
    for n in range(3, 9):
        elem = reidemeister_torsion(coboundary_matrices(cycle(n)))
        assert elem.scalar == pytest.approx(n, rel=1e-9)
        assert elem.scalar**2 == pytest.approx(_cycle_pseudodet_oracle(n), rel=1e-9)
        assert elem.kernel_dims == (1, 1)
        assert not elem.acyclic
        assert elem.warnings == ()


def test_lens_torsion_against_elementwise_oracle():
    for k in (1, 2, 3, 4):
        elem = reidemeister_torsion(lens(5, 1, k))
        assert elem.scalar == pytest.approx(_lens_torsion_oracle(5, 1, k), rel=1e-9)
        assert elem.acyclic
    frozen = reidemeister_torsion(lens(5, 1, 1)).scalar
    assert frozen == pytest.approx(1.381966011250105, rel=1e-9)
    assert frozen == pytest.approx(4.0 * math.sin(math.pi / 5.0) ** 2, rel=1e-12)


def test_lens_seven_torsion_matches_oracle():
    for q, k in [(2, 1), (3, 2), (2, 5)]:
        elem = reidemeister_torsion(lens(7, q, k))
        assert elem.scalar == pytest.approx(_lens_torsion_oracle(7, q, k), rel=1e-9)


def test_torsion_element_shape_and_tag():
    elem = reidemeister_torsion(coboundary_matrices(simplex_boundary(3)))
    assert elem.convention_tag == REIDEMEISTER_TAG
    assert elem.kernel_dims == (1, 0, 1)
    assert len(elem.harmonic_bases) == 3
    assert [b.label for b in elem.harmonic_bases] == ["H^0", "H^1", "H^2"]
    assert elem.inverse_scalar == pytest.approx(1.0 / elem.scalar, rel=1e-12)
    j = elem.to_json()
    assert set(j) == {"log_scalar", "scalar", "kernel_dims", "convention", "warnings"}
    assert j["kernel_dims"] == [1, 0, 1]


def test_scalar_gram_rescaling_moves_torsion_predictably():
    # scale the degree-1 inner product by s on the lens chain: the only
    # block that sees it is delta_0^+ delta_0 (target gram), weight +1/2,
    # since delta_1 = 0 there; so log tau shifts by exactly (1/2) log s
    C = lens(5, 1, 1)
    base = reidemeister_torsion(C).log_scalar
    s = 3.0
    grams = [np.eye(1, dtype=np.complex128) for _ in range(4)]
    grams[1] = s * grams[1]
    scaled = reidemeister_torsion(C.with_gram(grams)).log_scalar
    assert scaled - base == pytest.approx(0.5 * math.log(s), rel=1e-9)


def test_unitary_change_of_basis_preserves_torsion():
    rng = np.random.default_rng(17)
    C = coboundary_matrices(simplex_boundary(3))
    us = []
    for n in C.dims:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a)
        us.append(q)
    cob = tuple(
        us[p + 1] @ C.delta(p) @ us[p].conj().T for p in range(C.top)
    )
    rotated = GradedCochainComplex(dims=C.dims, coboundary=cob)
    a = reidemeister_torsion(C)
    b = reidemeister_torsion(rotated)
    assert b.log_scalar == pytest.approx(a.log_scalar, abs=1e-9)
    assert b.kernel_dims == a.kernel_dims


def test_trivial_local_system_inflates_log_torsion():
    K = simplex_boundary(3)
    rank = 2
    eye = np.eye(rank, dtype=np.complex128)
    ls = LocalSystem(rank=rank, holonomy={e: eye for e in K.simplices[1]})
    plain = reidemeister_torsion(coboundary_matrices(K))
    fat = reidemeister_torsion(coboundary_matrices(K, ls))
    # C tensor C^m repeats every eigenvalue m times
    assert fat.log_scalar == pytest.approx(rank * plain.log_scalar, abs=1e-9)
    assert fat.kernel_dims == tuple(rank * d for d in plain.kernel_dims)


def test_nontrivial_character_on_cycle_is_acyclic():
    # holonomy e^(i theta) around the circle: acyclic, tau = |e^(i theta) - 1|
    K = cycle(3)
    theta = 2.0 * math.pi / 3.0
    u = np.array([[cmath.exp(1j * theta)]])
    eye = np.array([[1.0 + 0j]])
    ls = LocalSystem(
        rank=1,
        holonomy={(0, 1): eye, (1, 2): eye, (0, 2): u},
    )
    C = coboundary_matrices(K, ls)
    elem = reidemeister_torsion(C)
    assert elem.acyclic
    assert cohomology_dimensions(C) == (0, 0)
    assert elem.scalar == pytest.approx(abs(cmath.exp(1j * theta) - 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# adjoints and Laplacians
# ---------------------------------------------------------------------------

def test_gram_adjoint_is_inner_product_adjoint():
    rng = np.random.default_rng(33)
    n, m = 4, 6

    def spd(k):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return (g @ g.conj().T + k * np.eye(k)).astype(np.complex128)

    g_src, g_tgt = spd(n), spd(m)
    op = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))).astype(np.complex128)
    adj = gram_adjoint(op, g_src, g_tgt)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    lhs = np.vdot(y, g_tgt @ (op @ x))
    rhs = np.vdot(adj @ y, g_src @ x)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_laplacian_kernels_are_betti_numbers():
    C = coboundary_matrices(simplex_boundary(4))
    elem = reidemeister_torsion(C)
    assert elem.kernel_dims == (1, 0, 0, 1)
    assert cohomology_dimensions(C) == (1, 0, 0, 1)
    for (lap, gram) in laplacians(C):
        assert np.allclose(lap, lap.conj().T, atol=1e-12)


def test_laplacians_respect_grams():
    rng = np.random.default_rng(8)
    C = coboundary_matrices(cycle(4))
    grams = []
    for n in C.dims:
        g = rng.standard_normal((n, n))
        grams.append((g @ g.T + n * np.eye(n)).astype(np.complex128))
    CG = C.with_gram(grams)
    for (lap, gram), n in zip(laplacians(CG), CG.dims):
        # G-self-adjoint: G lap == lap^+ G
        assert np.allclose(gram @ lap, lap.conj().T @ gram, atol=1e-9)


# ---------------------------------------------------------------------------
# twisted torsion
# ---------------------------------------------------------------------------

def test_zero_flux_twisted_equals_graded():
    for K in (cycle(3), simplex_boundary(3), simplex_boundary(4)):
        C = coboundary_matrices(K)
        r = reidemeister_torsion(C)
        t = twisted_torsion(twisted_differential(C, None))
        assert t.log_scalar == pytest.approx(r.log_scalar, abs=1e-10)
        assert t.convention_tag == TWISTED_TAG


def test_minimal_sphere_flux_torsion_is_flux_magnitude():
    for t in (0.25, 1.0, 4.0, -2.0):
        C = minimal_sphere(3)
        h = Cochain(degree=3, coefficients=np.array([t], dtype=np.complex128))
        elem = twisted_torsion(twisted_differential(C, h))
        assert elem.scalar == pytest.approx(abs(t), rel=1e-12)
        assert elem.kernel_dims == (0, 0)
        assert elem.acyclic


def test_top_flux_scaling_on_three_sphere():
    K = simplex_boundary(4)
    C = coboundary_matrices(K)
    ones = np.ones(K.n(3), dtype=np.complex128)
    base = twisted_torsion(twisted_differential(C, Cochain(degree=3, coefficients=ones)))
    for c in (2.0, -2.0, 0.5, -0.5, 3.0):
        elem = twisted_torsion(
            twisted_differential(C, Cochain(degree=3, coefficients=c * ones))
        )
        assert elem.scalar / base.scalar == pytest.approx(abs(c), rel=1e-9)
        assert twisted_cohomology_dimensions(
            twisted_differential(C, Cochain(degree=3, coefficients=c * ones))
        ) == (0, 0)


def test_twisted_kernel_dims_match_rank_nullity():
    C = coboundary_matrices(simplex_boundary(3))
    T = twisted_differential(C, None)
    elem = twisted_torsion(T)
    assert elem.kernel_dims == twisted_cohomology_dimensions(T)


# ---------------------------------------------------------------------------
# identity parity Grams: None, the same answer as explicit np.eye Grams
# ---------------------------------------------------------------------------

def _top_flux(K, c):
    return Cochain(degree=K.dim, coefficients=c * np.ones(K.n(K.dim)))


@pytest.mark.parametrize(
    "K, c",
    [(simplex_boundary(n), c) for n in (4, 6) for c in (2.0, 1.5 - 0.5j, None)]
    + [(cycle(9), None)],
    ids=[f"simplex_boundary({n})-{c}" for n in (4, 6) for c in ("top(2)", "top(1.5-0.5j)", "zero")]
    + ["cycle(9)-zero"],
)
def test_identity_grams_as_none_match_explicit_identity_grams(K, c):
    T = twisted_differential(K, None if c is None else _top_flux(K, c))
    assert T.gram_even is None and T.gram_odd is None
    twin = TwistedComplex(
        T.even_dim, T.odd_dim, T.d_even, T.d_odd, np.eye(T.even_dim), np.eye(T.odd_dim)
    )
    fast, gram_path = twisted_torsion(T), twisted_torsion(twin)
    assert abs(fast.log_scalar - gram_path.log_scalar) <= 1e-12
    assert fast.kernel_dims == gram_path.kernel_dims
    assert fast.warnings == gram_path.warnings


@pytest.fixture
def factorizations(monkeypatch):
    """Count the Cholesky factorizations the spectral module runs."""
    calls = []
    factor = spectral.np.linalg.cholesky

    def record(m, *args, **kwargs):
        calls.append(m.shape)
        return factor(m, *args, **kwargs)

    monkeypatch.setattr(spectral.np.linalg, "cholesky", record)
    return calls


def test_gram_less_twisted_complex_factors_nothing(factorizations):
    K = simplex_boundary(4)
    C = coboundary_matrices(K)
    twisted_torsion(twisted_differential(C, _top_flux(K, 2.0)))
    assert factorizations == []
    weighted = C.with_gram([np.eye(n) for n in C.dims])
    twisted_torsion(twisted_differential(weighted, _top_flux(K, 2.0)))
    assert factorizations


@pytest.mark.parametrize("grams", [(np.eye(1), None), (None, np.eye(1))])
def test_one_parity_gram_without_the_other_is_refused(grams):
    with pytest.raises(ValidationError, match="parity Grams must be given both or neither"):
        TwistedComplex(1, 1, np.zeros((1, 1)), np.zeros((1, 1)), *grams)


_MODELS = st.one_of(
    st.integers(3, 60).map(cycle),
    st.integers(2, 6).map(simplex_boundary),
)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(K=_MODELS)
def test_zero_flux_twisted_torsion_is_graded_torsion(K):
    C = coboundary_matrices(K)
    assert twisted_torsion(twisted_differential(C, None)).scalar == pytest.approx(
        reidemeister_torsion(C).scalar, rel=1e-10
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    n=st.sampled_from([4, 6]),
    log_modulus=st.floats(math.log(0.25), math.log(4.0)),
    phase=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, 2.0 * math.pi)),
)
def test_top_flux_torsion_is_the_flux_modulus(n, log_modulus, phase):
    # real c when the phase is 0 or pi, complex otherwise
    c = math.exp(log_modulus) * cmath.exp(1j * phase)
    if phase in (0.0, math.pi):
        c = c.real
    K = simplex_boundary(n)
    elem = twisted_torsion(twisted_differential(K, _top_flux(K, c)))
    assert elem.scalar == pytest.approx(abs(c), rel=1e-10)


# ---------------------------------------------------------------------------
# real complexes run in real arithmetic
# ---------------------------------------------------------------------------

def test_real_complex_runs_only_real_solves(eigensolves):
    reidemeister_torsion(coboundary_matrices(cycle(9)))
    # Laplacians keep their vectors for the harmonic bases; the telescoped
    # delta^+ delta solves read eigenvalues only
    assert eigensolves == [("float64", "vectors")] * 2 + [("float64", "values")] * 2


def test_lens_complex_runs_complex_solves(eigensolves):
    reidemeister_torsion(lens(5, 1, 2))
    # delta_1 is an exact zero and delta_3 the empty top map: both are
    # stored real, so only their telescoped solves are real
    assert eigensolves == [("complex128", "vectors")] * 4 + [
        ("complex128", "values"),
        ("float64", "values"),
        ("complex128", "values"),
        ("float64", "values"),
    ]


def test_twisted_solves_follow_the_flux_dtype(eigensolves):
    C = coboundary_matrices(simplex_boundary(4))
    ones = np.ones(C.dims[3])
    twisted_torsion(twisted_differential(C, Cochain(degree=3, coefficients=2 * ones)))
    assert eigensolves == [("float64", "values")] * 2 + [("float64", "vectors")] * 2
    eigensolves.clear()
    twisted_torsion(twisted_differential(C, Cochain(degree=3, coefficients=(1 + 1j) * ones)))
    # a top-degree flux maps degree 0 to degree 3, so only D_even is complex
    # and D_odd^+ D_odd stays a real solve
    assert eigensolves == [
        ("complex128", "values"),
        ("float64", "values"),
        ("complex128", "vectors"),
        ("complex128", "vectors"),
    ]


def test_matrix_tree_oracle_at_benchmark_scale():
    # pdet of the vertex Laplacian of the n-cycle is n^2 (Kirchhoff), so tau = n
    elem = reidemeister_torsion(coboundary_matrices(cycle(600)))
    assert abs(elem.log_scalar - math.log(600)) <= 1e-11
    assert elem.kernel_dims == (1, 1)
    # the boundary of the 10-simplex, a triangulated 9-sphere, has tau = 11
    elem = reidemeister_torsion(coboundary_matrices(simplex_boundary(10)))
    assert abs(elem.log_scalar - math.log(11)) <= 1e-11
    assert elem.kernel_dims == (1,) + (0,) * 8 + (1,)


@pytest.mark.parametrize("entry", [1e150, -1e150, 1e-150, 1e-150j])
def test_entries_at_the_range_ends_give_log_modulus(entry):
    C = GradedCochainComplex(dims=(1, 1), coboundary=(np.array([[entry]]),))
    elem = reidemeister_torsion(C)
    assert elem.log_scalar == pytest.approx(math.log(abs(entry)), rel=1e-15)
    assert elem.kernel_dims == cohomology_dimensions(C) == (0, 0)


def test_grams_that_overflow_the_laplacian_are_refused():
    # each entry is in range, but delta^+ delta = 1e150 * 1e150 * 1e150^2
    C = GradedCochainComplex(
        dims=(1, 1),
        coboundary=(np.array([[1e150]]),),
        gram=(np.array([[1e-150]]), np.array([[1e150]])),
    )
    with pytest.raises(ValidationError, match="non-finite entry"):
        reidemeister_torsion(C)


def test_grams_that_underflow_the_laplacian_are_refused():
    # each entry is in range, but delta^+ delta = 1e-150 * 1e-150^2 / 1e150
    # is exactly 0 in float64, which would read as a kernel in both degrees
    C = GradedCochainComplex(
        dims=(1, 1),
        coboundary=(np.array([[1e-150]]),),
        gram=(np.array([[1e150]]), np.array([[1e-150]])),
    )
    with pytest.raises(ValidationError, match="degree 0: .* underflowed"):
        reidemeister_torsion(C)
    with pytest.raises(ValidationError, match="degree 0: .* underflowed"):
        laplacians(C)


def test_twisted_grams_that_underflow_the_laplacian_are_refused():
    T = TwistedComplex(
        even_dim=1,
        odd_dim=1,
        d_even=np.array([[1e-150]]),
        d_odd=np.zeros((1, 1)),
        gram_even=np.array([[1e150]]),
        gram_odd=np.array([[1e-150]]),
    )
    with pytest.raises(ValidationError, match=r"d_even \(even parity\): .* underflowed"):
        twisted_torsion(T)


def test_underflow_in_the_down_term_is_refused():
    # delta^+ delta = 2 * 1e-300 * 1.5e-8 is still normal, but each entry
    # of delta delta^+ = 1e-300 * 1.5e-8 lies below the normal range
    column = np.array([[1e-150], [1e-150]])
    small = 1.5e-8 * np.eye(2)
    C = GradedCochainComplex(dims=(1, 2), coboundary=(column,), gram=(np.eye(1), small))
    with pytest.raises(ValidationError, match="degree 0: .* underflowed"):
        reidemeister_torsion(C)
    T = TwistedComplex(
        even_dim=1,
        odd_dim=2,
        d_even=column,
        d_odd=np.zeros((1, 2)),
        gram_even=np.eye(1),
        gram_odd=small,
    )
    with pytest.raises(ValidationError, match=r"d_even \(even parity\): .* underflowed"):
        twisted_torsion(T)


@pytest.mark.parametrize("log_scalar", [710.0, -710.0, math.inf, math.nan])
def test_torsion_element_outside_float64_is_refused(log_scalar):
    with pytest.raises(ValidationError, match="torsion log-scalar"):
        TorsionElement(log_scalar, (), REIDEMEISTER_TAG, ())
    assert TorsionElement(-709.0, (), REIDEMEISTER_TAG, ()).inverse_scalar < math.inf


def test_torsion_beyond_float64_is_refused():
    C = GradedCochainComplex(dims=(3, 3), coboundary=(1e150 * np.eye(3),))
    with pytest.raises(ValidationError, match="torsion log-scalar 1036.16"):
        reidemeister_torsion(C)
    with pytest.raises(ValidationError, match="torsion log-scalar 1036.16"):
        twisted_torsion(twisted_differential(C))
