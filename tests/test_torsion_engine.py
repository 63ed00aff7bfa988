"""Torsion scalars against independently derived oracles.

Circle: the vertex Laplacian of the n-cycle has pseudo-determinant
prod_{j=1}^{n-1} 2(1 - cos(2 pi j / n)) = n^2, so the torsion is n.
Lens: four 1x1 coboundaries give the alternating product
|zeta^k - 1| * |zeta^(k qbar) - 1| directly.
"""

import cmath
import dataclasses
import itertools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from torsionlab import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    TwistedComplex,
    build_simplicial,
    coboundary_matrices,
    cohomology_dimensions,
    hermitian_spectrum,
    reidemeister_torsion,
    signed_incidence,
    twisted_cohomology_dimensions,
    twisted_differential,
    twisted_torsion,
)
from torsionlab import chain_models, spectral, torsion_engine
from torsionlab.builders import cycle, from_expression, lens, minimal_sphere, simplex_boundary
from torsionlab.circle_bundle import build_invariant_complex, random_bundle, t_dualize
from torsionlab.chain_models import (
    SimplicialComplex,
    _faces_commute,
    _folded_residual,
    _made_with,
    _product_norm,
)
from torsionlab.errors import FluxNotNilpotent, ValidationError
from torsionlab.spectral import _map_blocks
from torsionlab.suite import bundle_fleet
from torsionlab.torsion_engine import (
    REIDEMEISTER_TAG,
    TWISTED_TAG,
    TorsionElement,
    _blocks,
    _rank,
)


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
        assert any(elem.kernel_dims)
        assert elem.warnings == ()


def test_lens_torsion_against_elementwise_oracle():
    for k in (1, 2, 3, 4):
        elem = reidemeister_torsion(lens(5, 1, k))
        assert elem.scalar == pytest.approx(_lens_torsion_oracle(5, 1, k), rel=1e-9)
        assert not any(elem.kernel_dims)
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
    assert math.exp(-elem.log_scalar) == pytest.approx(1.0 / elem.scalar, rel=1e-12)
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
    assert not any(elem.kernel_dims)
    assert cohomology_dimensions(C) == (0, 0)
    assert elem.scalar == pytest.approx(abs(cmath.exp(1j * theta) - 1.0), rel=1e-9)


# ---------------------------------------------------------------------------
# adjoints and Laplacians
# ---------------------------------------------------------------------------

def _hodge_laplacians(C: GradedCochainComplex) -> list[tuple[np.ndarray, np.ndarray]]:
    """(Delta_p, G_p) per degree, Delta_p = d_p^+ d_p + d_{p-1} d_{p-1}^+ with
    the adjoint d^+ = G_source^-1 d* G_target solved from the Grams directly,
    sharing no code with the engine's Gram-weighted blocks."""
    top = len(C.dims) - 1
    out = []
    for p, n in enumerate(C.dims):
        G = C.gram_at(p)
        lap = np.zeros((n, n), dtype=np.complex128)
        if p < top:
            d = C.coboundary[p]
            lap += np.linalg.solve(G, d.conj().T @ C.gram_at(p + 1) @ d)
        if p > 0:
            d = C.coboundary[p - 1]
            lap += d @ np.linalg.solve(C.gram_at(p - 1), d.conj().T @ G)
        out.append((lap, G))
    return out


def _assert_harmonic_bases_are_g_orthonormal_kernels(C: GradedCochainComplex) -> None:
    elem = reidemeister_torsion(C)
    assert len(elem.harmonic_bases) == len(C.dims)
    for (lap, gram), basis, k in zip(_hodge_laplacians(C), elem.harmonic_bases, elem.kernel_dims):
        V = basis.vectors
        assert V.shape == (gram.shape[0], k)
        assert np.allclose(lap @ V, 0.0, atol=1e-10)
        assert np.allclose(V.conj().T @ gram @ V, np.eye(k), atol=1e-10)


def test_laplacian_kernels_are_betti_numbers():
    C = coboundary_matrices(simplex_boundary(4))
    elem = reidemeister_torsion(C)
    assert elem.kernel_dims == (1, 0, 0, 1)
    assert cohomology_dimensions(C) == (1, 0, 0, 1)
    for (lap, _), k in zip(_hodge_laplacians(C), elem.kernel_dims):
        assert lap.shape[0] - np.linalg.matrix_rank(lap) == k


def test_laplacians_respect_grams():
    rng = np.random.default_rng(8)
    C = coboundary_matrices(cycle(4))
    grams = []
    for n in C.dims:
        g = rng.standard_normal((n, n))
        grams.append((g @ g.T + n * np.eye(n)).astype(np.complex128))
    _assert_harmonic_bases_are_g_orthonormal_kernels(C.with_gram(grams))


def test_gram_laplacians_are_killed_by_the_harmonic_bases():
    _assert_harmonic_bases_are_g_orthonormal_kernels(random_bundle(4242, 4).base)


# ---------------------------------------------------------------------------
# Gram-weighted solves against scipy's generalized solver and mpmath
# ---------------------------------------------------------------------------

def _spd(rng, n, complex_gram):
    g = rng.standard_normal((n, n))
    if complex_gram:
        g = g + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + n * np.eye(n)


@pytest.mark.parametrize(
    "n, m, rank, complex_d, complex_gram",
    [
        (7, 5, 5, True, True),
        # a larger Gram, with a larger triangular inverse
        (75, 60, 50, True, True),
        (14, 10, 9, False, False),
        # a complex Gram promotes a real coboundary to complex solves
        (6, 4, 3, False, True),
        # a zero coboundary: everything is harmonic
        (4, 3, 0, False, False),
    ],
)
def test_weighted_solves_match_scipy_generalized_solver(
    n, m, rank, complex_d, complex_gram, eigensolves
):
    rng = np.random.default_rng(21 + n)
    f, h = rng.standard_normal((m, rank)), rng.standard_normal((rank, n))
    if complex_d:
        f = f + 1j * rng.standard_normal((m, rank))
    g0, g1 = _spd(rng, n, complex_gram), _spd(rng, m, complex_gram)
    C = GradedCochainComplex(dims=(n, m), coboundary=(f @ h,), gram=(g0, g1))
    d = C.coboundary[0]

    # d^+ d = G_0^-1 d* G_1 d: the generalized problem (d* G_1 d, G_0)
    reference = scipy.linalg.eigh(
        (d.conj().T @ g1 @ d).astype(np.complex128), g0.astype(np.complex128), eigvals_only=True
    )
    scale = max(1.0, float(reference.max()))
    # with Grams the torsion solves w w* (order m < n), which holds the
    # same nonzero spectrum as w* w, with n - m fewer zeros
    square = list(_blocks(C))[0][0]
    assert square.shape == (m, m)
    values = hermitian_spectrum(square).eigenvalues
    assert np.max(np.abs(values - reference[n - m:])) <= 1e-12 * scale

    eigensolves.clear()
    elem = reidemeister_torsion(C)
    solve_dtype = "complex128" if complex_d or complex_gram else "float64"
    # the top degree's w* w is exactly zero, and so is every operator of a
    # zero coboundary: those spectra are known without an eigensolve
    assert [dtype for dtype, _ in eigensolves] == [solve_dtype] * (3 if rank else 0)
    positive = reference[reference > 1e-9 * scale]
    assert elem.log_scalar == pytest.approx(0.5 * np.sum(np.log(positive)), abs=1e-10)
    assert elem.kernel_dims == cohomology_dimensions(C) == (n - rank, m - rank)

    # harmonic bases are G-orthonormal and span ker d and ker d^+ = ker d* G_1
    h0, h1 = (basis.vectors for basis in elem.harmonic_bases)
    assert np.allclose(h0.conj().T @ g0 @ h0, np.eye(n - rank), atol=1e-10)
    assert np.allclose(h1.conj().T @ g1 @ h1, np.eye(m - rank), atol=1e-10)
    assert np.max(np.abs(d @ h0), initial=0.0) <= 1e-10 * scale
    assert np.max(np.abs(d.conj().T @ g1 @ h1), initial=0.0) <= 1e-10 * scale


def _conditioned_gram(rng, n, kappa):
    """A random SPD Gram with eigenvalues log-spaced from 1 down to 1/kappa."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * np.logspace(0, -np.log10(kappa), n)) @ q.T
    return 0.5 * (g + g.T)


def _mpmath_log_torsion(C) -> tuple[float, tuple[int, ...], bool]:
    """log tau, kernel dims and whether some cut is poorly separated, at
    50 digits, from the Hodge Laplacians
    G_p^-1 d_p* G_{p+1} d_p + d_{p-1} G_{p-1}^-1 d_{p-1}* G_p with explicit
    inverses and a general eigensolver, cut like the engine: at 1e-9
    times the largest eigenvalue modulus.  A cut is poorly separated when
    the smallest retained eigenvalue is within 1e3 of the largest
    discarded modulus."""
    with mpmath.workdps(50):
        k = len(C.dims)
        grams = [mpmath.matrix(g.tolist()) for g in C.gram]
        d = [mpmath.matrix(a.tolist()) for a in C.coboundary]
        adj = [mpmath.inverse(grams[p]) * d[p].T * grams[p + 1] for p in range(k - 1)]
        log_tau, kernel_dims, poor = mpmath.mpf(0), [], False
        for p, n in enumerate(C.dims):
            lap = mpmath.zeros(n, n)
            if p < k - 1:
                lap += adj[p] * d[p]
            if p > 0:
                lap += d[p - 1] * adj[p - 1]
            ev = [mpmath.re(e) for e in mpmath.eig(lap, left=False, right=False)]
            cut = mpmath.mpf("1e-9") * max(abs(e) for e in ev)
            positive = [e for e in ev if e > cut]
            discarded = [abs(e) for e in ev if e <= cut]
            if positive and discarded:
                poor = poor or min(positive) < spectral.GAP_RATIO * max(discarded)
            kernel_dims.append(n - len(positive))
            log_tau += (-1) ** (p + 1) * mpmath.mpf(p) / 2 * mpmath.fsum(map(mpmath.log, positive))
        return float(log_tau), tuple(kernel_dims), poor


@pytest.mark.parametrize("K", [cycle(6), simplex_boundary(3)], ids=["cycle(6)", "simplex_boundary(3)"])
@pytest.mark.parametrize("seed", range(6))
def test_ill_conditioned_grams_against_mpmath(K, seed):
    rng = np.random.default_rng(seed)
    C = coboundary_matrices(K)
    C = C.with_gram([_conditioned_gram(rng, n, 1e6) for n in C.dims])
    reference, kernel_dims, poor = _mpmath_log_torsion(C)
    elem = reidemeister_torsion(C)
    assert abs(elem.log_scalar - reference) <= 1e-9
    assert elem.kernel_dims == kernel_dims
    # no warning but a kernel cut that the reference finds poorly
    # separated too (seed 5 on cycle(6): 3.2e-4 discarded, 3.5e-2 kept)
    assert all(w.startswith("kernel cut poorly separated") for w in elem.warnings)
    assert bool(elem.warnings) == poor


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
        assert not any(elem.kernel_dims)


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
    T = twisted_differential(coboundary_matrices(K), None if c is None else _top_flux(K, c))
    assert T.gram_even is None and T.gram_odd is None
    twin = TwistedComplex(
        T.even_dim, T.odd_dim, T.d_even, T.d_odd, np.eye(T.even_dim), np.eye(T.odd_dim)
    )
    fast, gram_path = twisted_torsion(T), twisted_torsion(twin)
    assert abs(fast.log_scalar - gram_path.log_scalar) <= 1e-12
    assert fast.kernel_dims == gram_path.kernel_dims
    assert fast.warnings == gram_path.warnings


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


def test_torsion_reuses_the_gram_factors_of_its_complex(factorizations, lower_inverses):
    b = random_bundle(4242, 4)
    ic = build_invariant_complex(b)
    factorizations.clear()
    twisted_torsion(ic)
    reidemeister_torsion(b.base)
    assert factorizations == []
    # one triangular inverse per nonempty Gram: two parities, five degrees
    assert b.base.dims == (1, 1, 2, 2, 2)
    assert len(lower_inverses) == 2 + 5
    twisted_torsion(ic)
    reidemeister_torsion(b.base)
    assert factorizations == [] and len(lower_inverses) == 7


def test_public_grams_stay_plain_arrays():
    b = random_bundle(4242, 4)
    ic = build_invariant_complex(b)
    for g in (*b.base.gram, ic.gram_even, ic.gram_odd):
        assert type(g) is np.ndarray


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
    elem = twisted_torsion(twisted_differential(coboundary_matrices(K), _top_flux(K, c)))
    assert elem.scalar == pytest.approx(abs(c), rel=1e-10)


# ---------------------------------------------------------------------------
# real complexes run in real arithmetic
# ---------------------------------------------------------------------------

def test_real_complex_runs_only_real_solves(eigensolves):
    reidemeister_torsion(coboundary_matrices(cycle(9)))
    # per degree, the Laplacian for values only, then the square of the
    # map out by eigh, whose eigenvalues alone are read; the top degree's
    # square is 0 x 0 and needs no eigensolve
    assert eigensolves == [("float64", "values"), ("float64", "vectors"), ("float64", "values")]


def test_lens_complex_runs_complex_solves(eigensolves):
    reidemeister_torsion(lens(5, 1, 2))
    # delta_1 is an exact zero and delta_3 the empty top map: their
    # squares are of exact zeros and need no eigensolve
    assert eigensolves == [
        ("complex128", "values"),
        ("complex128", "vectors"),
        ("complex128", "values"),
        ("complex128", "values"),
        ("complex128", "vectors"),
        ("complex128", "values"),
    ]


# ---------------------------------------------------------------------------
# graded solves: the bases are formed when first read, each cut checked once
# ---------------------------------------------------------------------------

def _graded_case(name):
    if name == "lens":
        return lens(5, 1, 2)
    if name == "bundle base":
        return random_bundle(4242, 4).base
    if name == "weighted cycle(40)":
        C = coboundary_matrices(cycle(40))
        return C.with_gram([_random_spd(np.random.default_rng(5), n) for n in C.dims])
    return coboundary_matrices(from_expression(name))


@pytest.mark.parametrize("name", ["cycle(9)", "simplex_boundary(4)", "lens", "weighted cycle(40)"])
def test_first_read_of_graded_bases_costs_one_solve(name, eigensolves):
    # one vector solve of each degree's Laplacian, on the first read only
    C = _graded_case(name)
    elem = reidemeister_torsion(C)
    solved = list(eigensolves)
    elem.to_json()
    assert eigensolves == solved
    first = elem.harmonic_bases
    assert eigensolves[len(solved):] == [(solved[0][0], "vectors")] * len(C.dims)
    assert elem.harmonic_bases is first
    assert len(eigensolves) == len(solved) + len(C.dims)


@pytest.mark.parametrize("expr, degrees", [("cycle(9)", 2), ("simplex_boundary(5)", 5)])
def test_each_solve_is_checked_for_roundoff_once(expr, degrees, monkeypatch):
    # one roundoff refusal check per solved operator: each Laplacian in
    # the solve loop, each square in its pseudo-determinant
    seen = []
    check = spectral._refuse_imprecise

    def record(dec):
        seen.append(dec)
        return check(dec)

    monkeypatch.setattr(spectral, "_refuse_imprecise", record)
    monkeypatch.setattr(torsion_engine, "_refuse_imprecise", record)
    reidemeister_torsion(coboundary_matrices(from_expression(expr)))
    assert len(seen) == len({id(dec) for dec in seen}) == 2 * degrees


@pytest.mark.parametrize(
    "name", ["cycle(9)", "cycle(40)", "simplex_boundary(6)", "lens", "weighted cycle(40)", "bundle base"]
)
def test_h0_equals_an_eager_eigh_of_delta_0_bit_for_bit(name):
    C = _graded_case(name)
    # the lazy H^0 and an eager vector solve of Delta_0, cut at the
    # kernel dimension the torsion found, lifted by L_0^{-*}
    elem = reidemeister_torsion(C)
    _, lap, gram = list(_blocks(C))[0]
    eager = hermitian_spectrum(lap)
    assert eager.kernel_dimension == elem.kernel_dims[0]
    h0 = eager.eigenvectors[:, :eager.kernel_dimension]
    if gram is not None:
        h0 = gram.lower_inverse.conj().T @ h0
    basis = elem.harmonic_bases[0]
    assert basis.label == "H^0"
    assert basis.vectors.dtype == h0.dtype and basis.vectors.tobytes() == h0.tobytes()


def test_graded_bases_keep_only_their_kernel_columns():
    # no basis holds a view of the n x n eigenvector matrix it was cut from
    elem = reidemeister_torsion(coboundary_matrices(simplex_boundary(5)))
    for basis, k in zip(elem.harmonic_bases, elem.kernel_dims):
        assert basis.vectors.shape[1] == k
        assert basis.vectors.base is None or basis.vectors.base.size == basis.vectors.size


def test_twisted_solves_follow_the_flux_dtype(eigensolves):
    C = coboundary_matrices(simplex_boundary(4))
    ones = np.ones(C.dims[3])
    elem = twisted_torsion(twisted_differential(C, Cochain(degree=3, coefficients=2 * ones)))
    # per parity, the Laplacian then D^+ D, both for values only; the
    # Laplacians are solved again, with vectors, when the bases are read
    assert eigensolves == [("float64", "values")] * 4
    elem.harmonic_bases
    assert eigensolves[4:] == [("float64", "vectors")] * 2
    eigensolves.clear()
    elem = twisted_torsion(twisted_differential(C, Cochain(degree=3, coefficients=(1 + 1j) * ones)))
    # a top-degree flux maps degree 0 to degree 3, so only D_even is complex
    # and D_odd^+ D_odd stays a real solve
    assert eigensolves == [
        ("complex128", "values"),
        ("complex128", "values"),
        ("complex128", "values"),
        ("float64", "values"),
    ]
    elem.harmonic_bases
    assert eigensolves[4:] == [("complex128", "vectors")] * 2


# ---------------------------------------------------------------------------
# twisted harmonic bases are formed when first read
# ---------------------------------------------------------------------------

def test_twisted_bases_equal_the_eager_lifted_bases_bit_for_bit():
    # the suite fleet (the Hopf grid and the random fleet) and each dual:
    # one vector solve per parity, cut at the torsion's kernel dimension,
    # gives the bases an eager eigh and its own cut gave
    for _, b in bundle_fleet():
        for model in (b, t_dualize(b)):
            ic = build_invariant_complex(model)
            elem = twisted_torsion(ic)
            blocks = list(_blocks(ic))
            assert len(elem.harmonic_bases) == len(blocks) == 2
            for basis, name, (_, lap, gram) in zip(elem.harmonic_bases, ("even", "odd"), blocks):
                dec = hermitian_spectrum(lap)
                eager = dec.eigenvectors[:, :dec.kernel_dimension]
                if gram is not None:
                    eager = gram.lower_inverse.conj().T @ eager
                assert basis.label == name
                assert np.array_equal(basis.vectors, eager)
            assert tuple(basis.vectors.shape[1] for basis in elem.harmonic_bases) == elem.kernel_dims


def test_unread_twisted_bases_run_no_vector_solve(eigensolves):
    elem = twisted_torsion(build_invariant_complex(random_bundle(4242, 4)))
    elem.to_json()
    assert eigensolves and all(kind == "values" for _, kind in eigensolves)


def test_twisted_bases_are_solved_once(eigensolves):
    elem = twisted_torsion(build_invariant_complex(random_bundle(4242, 4)))
    first = elem.harmonic_bases
    assert elem.harmonic_bases is first
    assert [kind for _, kind in eigensolves].count("vectors") == 2


def test_poorly_separated_cut_gives_bases_of_the_kernel_dims():
    # with flux 2 on the 3-sphere, D_even^+ D_even has eigenvalues 0.078
    # and 1.59 on either side of the cut 1, which keeps the first as kernel
    C = coboundary_matrices(simplex_boundary(4))
    T = twisted_differential(C, Cochain(degree=3, coefficients=2 * np.ones(C.dims[3])))
    elem = twisted_torsion(T, kernel_tol=1.0)
    assert any("poorly separated" in w for w in elem.warnings)
    assert elem.kernel_dims != twisted_cohomology_dimensions(T)
    assert tuple(basis.vectors.shape[1] for basis in elem.harmonic_bases) == elem.kernel_dims


_SCALED = st.builds(
    lambda m, k: m * 10.0**k,
    st.floats(1.0, 10.0, exclude_max=True) | st.floats(-10.0, -1.0, exclude_min=True),
    st.integers(-75, 75),
)


def _two_scale_complex(a: float, b: float, grams=None) -> GradedCochainComplex:
    """dims [1, 2, 1] with delta_0 = [[a], [0]] and delta_1 = [[0, b]]:
    acyclic, with Delta_1 = diag(a^2, b^2) on two scales."""
    return GradedCochainComplex(
        dims=(1, 2, 1),
        coboundary=(np.array([[a], [0.0]]), np.array([[0.0, b]])),
        gram=grams,
    )


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(a=_SCALED, b=_SCALED, seed=st.integers(0, 2**32 - 1))
@example(a=2e-3, b=1e3, seed=0)
@example(a=1e-75, b=9.99e75, seed=1)
def test_two_scale_torsion_is_the_per_map_sum(a, b, seed):
    # each map is summed and ranked on its own scale, however far apart
    # the two scales of Delta_1 lie: log tau = log|a| - log|b|
    expected = math.log(abs(a)) - math.log(abs(b))
    scale = max(1.0, abs(math.log(abs(a))) + abs(math.log(abs(b))))
    elem = reidemeister_torsion(_two_scale_complex(a, b))
    assert abs(elem.log_scalar - expected) <= 1e-12 * scale
    assert elem.kernel_dims == (0, 0, 0)
    assert elem.warnings == ()
    # with Grams, log tau moves by -(1/2) sum_p (-1)^p log det G_p
    rng = np.random.default_rng(seed)
    grams = [_random_spd(rng, n) for n in (1, 2, 1)]
    shift = -0.5 * sum((-1) ** p * np.linalg.slogdet(g)[1] for p, g in enumerate(grams))
    weighted = reidemeister_torsion(_two_scale_complex(a, b, grams))
    assert abs(weighted.log_scalar - (expected + shift)) <= 1e-12 * scale
    assert weighted.kernel_dims == (0, 0, 0)
    assert weighted.warnings == ()


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
    assert math.exp(-TorsionElement(-709.0, (), REIDEMEISTER_TAG, ()).log_scalar) < math.inf


def test_torsion_beyond_float64_is_refused():
    C = GradedCochainComplex(dims=(3, 3), coboundary=(1e150 * np.eye(3),))
    with pytest.raises(ValidationError, match="torsion log-scalar 1036.16"):
        reidemeister_torsion(C)
    with pytest.raises(ValidationError, match="torsion log-scalar 1036.16"):
        twisted_torsion(twisted_differential(C))


def _random_spd(rng, n: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
    return 0.5 * (g + g.T)


def _basis_change(rng, n: int, kind: str) -> np.ndarray:
    if kind == "signed permutation":
        return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], size=n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if kind == "orthogonal":
        return q
    # well conditioned but not orthogonal: only the matching Gram keeps tau
    return (q * rng.uniform(0.5, 2.0, size=n)) @ np.linalg.qr(rng.standard_normal((n, n)))[0]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    C=st.one_of(
        st.integers(3, 30).map(lambda n: coboundary_matrices(cycle(n))),
        st.integers(2, 5).map(lambda n: coboundary_matrices(simplex_boundary(n))),
        st.integers(1, 4).map(lambda k: lens(5, 1, k)),
    ),
    kind=st.sampled_from(["signed permutation", "orthogonal", "invertible"]),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_torsion_is_invariant_under_a_basis_change_with_the_matching_gram(C, kind, weighted, seed):
    # delta'_p = Q_{p+1} delta_p Q_p^-1 and G'_p = Q_p^-T G_p Q_p^-1 is the
    # same complex and the same inner products in another basis
    rng = np.random.default_rng(seed)
    if weighted:
        C = C.with_gram([_random_spd(rng, n) for n in C.dims])
    qs = [_basis_change(rng, n, kind) for n in C.dims]
    inv = [np.linalg.inv(q) for q in qs]
    grams = [iq.T @ C.gram_at(p) @ iq for p, iq in enumerate(inv)]
    moved = GradedCochainComplex(
        dims=C.dims,
        coboundary=[qs[p + 1] @ d @ inv[p] for p, d in enumerate(C.coboundary)],
        gram=[0.5 * (g + g.T) for g in grams],
    )
    before, after = reidemeister_torsion(C), reidemeister_torsion(moved)
    assert after.kernel_dims == before.kernel_dims
    assert abs(after.log_scalar - before.log_scalar) <= 1e-10 * max(1.0, abs(before.log_scalar))


# ---------------------------------------------------------------------------
# coboundaries split on the bipartite components of their nonzeros
# ---------------------------------------------------------------------------

def _bipartite_components(d):
    """Labels of the m + n nodes of d's bipartite graph (rows, then
    columns) from scipy's connected components, an oracle that shares no
    code with ``spectral._map_blocks``."""
    adjacency = scipy.sparse.csr_matrix(d != 0)
    graph = scipy.sparse.bmat([[None, adjacency], [adjacency.T, None]])
    return scipy.sparse.csgraph.connected_components(graph, directed=False)[1]


def _labels_of(blocks, m, n):
    # a node outside every block is a zero row or column: its own label
    labels = np.arange(m + n) + len(blocks)
    for k, (rows, cols) in enumerate(blocks):
        labels[rows], labels[m + cols] = k, k
    return labels


def _same_partition(a, b):
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _permuted_map(rng, kind, shapes, zero_rows=3, zero_cols=2):
    """Sparse random blocks of the given shapes plus zero rows and
    columns, rows and columns randomly permuted.  ``kind`` "imaginary"
    gives the first block entries with a zero real part."""
    blocks = []
    for r, c in shapes:
        b = rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.4)
        if kind == "complex":
            b = b + 1j * rng.standard_normal((r, c)) * (rng.random((r, c)) < 0.4)
        elif kind == "imaginary" and not blocks:
            b = 1j * b
        blocks.append(b)
    B = scipy.linalg.block_diag(*blocks, np.zeros((zero_rows, zero_cols)))
    if kind == "imaginary":
        B = B.astype(np.complex128)
    return B[np.ix_(rng.permutation(B.shape[0]), rng.permutation(B.shape[1]))]


_SPLIT_SHAPES = [(12, 9), (10, 14), (8, 8), (6, 5), (1, 1)]


@pytest.mark.parametrize("kind", ["real", "complex", "imaginary"])
@pytest.mark.parametrize("seed", range(4))
def test_map_blocks_match_connected_components(seed, kind):
    d = _permuted_map(np.random.default_rng(1100 + seed), kind, _SPLIT_SHAPES)
    blocks = _map_blocks(d)
    assert blocks is not None
    assert _same_partition(_labels_of(blocks, *d.shape), _bipartite_components(d))
    kept = np.zeros(d.shape, dtype=bool)
    for rows, cols in blocks:
        assert np.all(np.diff(rows) > 0) and np.all(np.diff(cols) > 0)
        kept[np.ix_(rows, cols)] = True
    assert not d[~kept].any()


@pytest.mark.parametrize("kind", ["real", "complex", "imaginary"])
@pytest.mark.parametrize("seed", range(4))
def test_split_rank_products_and_residuals_match_the_whole_ones(seed, kind, svds):
    rng = np.random.default_rng(1200 + seed)
    d = _permuted_map(rng, kind, _SPLIT_SHAPES)
    blocks = _map_blocks(d)
    dtype = np.dtype(d.dtype).name
    assert _rank(d, blocks) == np.linalg.matrix_rank(d)
    assert svds == [((rows.size, cols.size), dtype) for rows, cols in blocks]

    scale = np.linalg.norm(d) ** 2
    # the component products land in the Laplacians: d* d in degree 0's,
    # d d* in degree 1's, whose up term (the top map's) is zero
    C = GradedCochainComplex(dims=(d.shape[1], d.shape[0]), coboundary=(d,))
    assert C._components[0] is not None
    laps = [lap for _, lap, _ in _blocks(C)]
    for lap, whole in zip(laps, (d.conj().T @ d, d @ d.conj().T)):
        assert np.max(np.abs(lap - whole)) <= 1e-12 * scale
    a = rng.standard_normal((20, d.shape[0]))
    if kind != "real":
        a = a + 1j * rng.standard_normal(a.shape)
    reference = np.linalg.norm(a @ d)
    assert abs(_product_norm(a, d, blocks) - reference) <= 1e-12 * np.linalg.norm(a) * np.linalg.norm(d)


def test_split_rank_keeps_the_whole_matrix_cut(svds):
    # two orthogonal blocks, every singular value 1 and 1e-15: alone, each
    # block is of full rank under its own cut, but the whole map's cut,
    # 1 * 40 * eps, drops the small one, and so must the split rank
    rng = np.random.default_rng(7)
    big, small = (np.linalg.qr(rng.standard_normal((20, 20)))[0] for _ in range(2))
    B = scipy.linalg.block_diag(big, 1e-15 * small)
    d = B[np.ix_(rng.permutation(40), rng.permutation(40))]
    blocks = _map_blocks(d)
    assert len(blocks) == 2
    assert [np.linalg.matrix_rank(d[np.ix_(rows, cols)]) for rows, cols in blocks] == [20, 20]
    svds.clear()
    assert _rank(d, blocks) == np.linalg.matrix_rank(d) == 20
    assert svds == [((20, 20), "float64")] * 2


@pytest.mark.parametrize(
    "shapes, zero_rows",
    [
        ([(40, 35)], 0),  # dense: one component
        ([(10, 8), (10, 8), (5, 6)], 3),  # larger side 28, below the split order
        ([(20, 10), (15, 10)], 0),  # 20 of 35 rows, 10 of 20 columns
        ([(10, 20), (10, 15)], 0),  # 10 of 20 rows, 20 of 35 columns
    ],
    ids=["connected", "small", "half-rows", "half-columns"],
)
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_map_kept_whole_gets_the_bytes_of_the_whole_call(shapes, zero_rows, kind, svds):
    rng = np.random.default_rng(len(shapes) + zero_rows)
    blocks = [rng.standard_normal(s) + (1j * rng.standard_normal(s) if kind == "complex" else 0) for s in shapes]
    B = scipy.linalg.block_diag(*blocks, np.zeros((zero_rows, 0)))
    d = B[np.ix_(rng.permutation(B.shape[0]), rng.permutation(B.shape[1]))]
    C = GradedCochainComplex(dims=(d.shape[1], d.shape[0]), coboundary=(d,))
    assert C._components == (None,)
    (square, _, _), (_, down, _) = _blocks(C)
    top = C.delta(1)
    # the smaller of d* d and d d*; half-columns has 20 rows to 35 columns
    smaller = d.conj().T @ d if d.shape[1] <= d.shape[0] else d @ d.conj().T
    assert square.tobytes() == smaller.tobytes()
    assert down.tobytes() == ((top.conj().T @ top) + d @ d.conj().T).tobytes()
    svds.clear()
    ranks = np.linalg.matrix_rank(d)
    assert cohomology_dimensions(C) == (d.shape[1] - ranks, d.shape[0] - ranks)
    assert svds == [(d.shape, np.dtype(d.dtype).name)]
    a = rng.standard_normal((5, d.shape[0]))
    assert _product_norm(a, d, None) == float(np.linalg.norm(a @ d))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_with_grams_the_products_of_a_split_map_stay_whole(kind):
    rng = np.random.default_rng(13)
    d = _permuted_map(rng, kind, _SPLIT_SHAPES)
    assert _map_blocks(d) is not None
    C = GradedCochainComplex(
        dims=(d.shape[1], d.shape[0]),
        coboundary=(d,),
        gram=[_random_spd(rng, n) for n in (d.shape[1], d.shape[0])],
    )
    f0, f1 = C._gram_factors
    w = f1.lower.conj().T @ d @ f0.lower_inverse.conj().T
    (square, lap, _), (_, down, _) = _blocks(C)
    top = C.delta(1)
    # with Grams the torsion solves w w*, whatever the orders of the squares
    assert square.tobytes() == (w @ w.conj().T).tobytes()
    assert lap.tobytes() == (w.conj().T @ w).tobytes()
    assert down.tobytes() == ((top.conj().T @ top) + w @ w.conj().T).tobytes()


def test_two_half_blocks_split():
    rng = np.random.default_rng(3)
    B = scipy.linalg.block_diag(rng.standard_normal((16, 16)), rng.standard_normal((16, 16)))
    d = B[np.ix_(rng.permutation(32), rng.permutation(32))]
    assert [(rows.size, cols.size) for rows, cols in _map_blocks(d)] == [(16, 16), (16, 16)]


@pytest.mark.parametrize("c", [2.0, 1.5 - 0.5j, 0.75j])
@pytest.mark.parametrize("n", [4, 6, 8])
def test_twisted_cohomology_dims_are_the_whole_matrix_answer(n, c, svds):
    C = coboundary_matrices(simplex_boundary(n))
    T = twisted_differential(C, Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], c)))
    svds.clear()
    dims = twisted_cohomology_dimensions(T)
    even, odd = (np.linalg.matrix_rank(d) for d in (T.d_even, T.d_odd))
    assert dims == (T.even_dim - even - odd, T.odd_dim - odd - even) == (0, 0)
    dtype = np.dtype(T.d_even.dtype).name
    # one SVD, of the coupled part of d_even: degrees 1 and top by 0 and
    # top - 1, where the flux block 0 -> top meets delta_0 and
    # delta_{top-1}; every other delta_p is a direct summand, ranked from
    # C's exact Betti numbers
    coupled = {4: 15, 6: 28, 8: 45}[n]
    assert C.dims[1] + C.dims[C.top] == C.dims[0] + C.dims[C.top - 1] == coupled
    assert svds == [((coupled, coupled), dtype)]
    if n < 8:
        # order 15 is below the split order; at order 63 a component
        # spans 35 rows
        assert T._components == (None, None)
    else:
        # the solves still split the order-255 maps into components
        shapes = [[(rows.size, cols.size) for rows, cols in b] for b in T._components]
        assert sorted(shapes[0]) == [(45, 45), (84, 126), (126, 84)]
        assert sorted(shapes[1]) == [(36, 84), (84, 36), (126, 126)]
        # the solved square is the direct sum of each component's smaller
        # product, a tie keeping b* b: the block of w* w on its columns or
        # of w w* on its rows, of order 45 + 84 + 84, not 255
        square, lap, _ = list(_blocks(T))[0]
        w = T.d_even
        inner, outer = w.conj().T @ w, w @ w.conj().T
        tol = 1e-12 * np.linalg.norm(w) ** 2
        assert square.shape == (213, 213)
        at = 0
        for rows, cols in T._components[0]:
            side, whole = (rows, outer) if rows.size < cols.size else (cols, inner)
            k = at + side.size
            assert np.max(np.abs(square[at:k, at:k] - whole[np.ix_(side, side)])) <= tol
            assert not square[at:k, k:].any() and not square[k:, at:k].any()
            at = k
        # and w* w lands whole in the Laplacian, beside d_odd d_odd*
        down = T.d_odd @ T.d_odd.conj().T
        assert np.max(np.abs(lap - inner - down)) <= tol + 1e-12 * np.linalg.norm(T.d_odd) ** 2


def _taken_whole(T: TwistedComplex) -> TwistedComplex:
    """A copy of T whose two maps are taken whole: the reference layout,
    whose products are n x n and whose squares the solver splits."""
    whole = dataclasses.replace(T)
    object.__setattr__(whole, "_components", (None, None))
    return whole


def _assert_the_whole_answer(T: TwistedComplex) -> None:
    got, whole = twisted_torsion(T), twisted_torsion(_taken_whole(T))
    assert abs(got.log_scalar - whole.log_scalar) <= 1e-12 * max(1.0, abs(whole.log_scalar))
    assert got.kernel_dims == whole.kernel_dims
    assert got.warnings == whole.warnings


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(
    n=st.sampled_from([7, 8]),
    kind=st.sampled_from(["real", "complex", "zero"]),
    log_modulus=st.floats(math.log(0.25), math.log(4.0)),
    phase=st.floats(0.0, 2 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_twists_solve_as_the_whole_matrices(n, kind, log_modulus, phase, seed):
    # S^7 takes a top-degree flux, whose maps split; the top degree of S^6
    # is even, so it takes an exact flux in degree 5, whose maps are whole
    C = coboundary_matrices(simplex_boundary(n))
    c = math.exp(log_modulus) * (cmath.exp(1j * phase) if kind == "complex" else 1.0)
    if C.top % 2:
        h = Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], c))
    else:
        b = np.random.default_rng(seed).standard_normal(C.dims[4])
        h = Cochain(degree=5, coefficients=c * (C.delta(4) @ b))
    T = twisted_differential(C, None if kind == "zero" else h)
    assert (T._components[0] is not None) == (n == 8)
    _assert_the_whole_answer(T)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(st.integers(64, 200))
def test_zero_flux_cycles_solve_as_the_whole_matrices(n):
    # d_odd is the zero map: no component, and an empty square
    T = twisted_differential(coboundary_matrices(cycle(n)))
    assert T._components == (None, ())
    _assert_the_whole_answer(T)
    square, lap, _ = list(_blocks(T))[1]
    assert square.shape == (0, 0)
    assert lap.tobytes() == (T.d_even @ T.d_even.T).tobytes()


@pytest.mark.parametrize("c", [2.0, 1.5 - 0.5j])
def test_a_split_twist_solves_its_real_components_in_float64(c, eigensolves, monkeypatch):
    solved = []
    solve = torsion_engine.hermitian_spectrum

    def record(A, **kwargs):
        solved.append(A.shape[0])
        return solve(A, **kwargs)

    monkeypatch.setattr(torsion_engine, "hermitian_spectrum", record)
    C = coboundary_matrices(simplex_boundary(8))
    T = twisted_differential(C, Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], c)))
    twisted_torsion(T)
    # per parity the Laplacian, of order 255, then the direct sum of each
    # component's smaller product: 45 + 84 + 84 even, 36 + 36 + 126 odd
    assert solved == [255, 213, 255, 198]
    # a complex flux makes the component it sits in complex, with the
    # Laplacian blocks it reaches (33 even, 24 odd); the two components
    # of order 84 beside it are real and solved in float64
    flux = "complex128" if isinstance(c, complex) else "float64"
    assert eigensolves == [
        (flux, "values"),  # even Laplacian: one block of 33, the rest 1 x 1
        (flux, "values"),  # the component that holds the flux, order 45
        ("float64", "values"),
        ("float64", "values"),
        (flux, "values"),  # odd Laplacian: one block of 24
        ("float64", "values"),  # the odd square, all real, solved whole
    ]


def test_a_complex_keeps_its_betti_numbers(svds):
    # two disjoint 3-spheres: off a vertex star the other sphere keeps its
    # maps, which take SVDs, once per complex
    K = build_simplicial([s for v in (0, 5) for s in itertools.combinations(range(v, v + 5), 4)])
    C = coboundary_matrices(K)
    twists = [
        twisted_differential(C, Cochain(degree=3, coefficients=np.full(C.dims[3], c)))
        for c in (2.0, 0.5j)
    ]
    svds.clear()
    betti = cohomology_dimensions(C)
    assert betti == (2, 0, 0, 2) and svds
    svds.clear()
    assert cohomology_dimensions(C) is betti
    assert svds == []
    # each twist decomposes only its coupled parts: degrees 0 and 3 with
    # the delta_0 and delta_2 they touch; delta_1 is ranked from C's kept
    # Betti numbers, with no SVD
    for T in twists:
        whole = _whole_answer(T)
        svds.clear()
        assert twisted_cohomology_dimensions(T) == whole == (0, 0)
        assert [shape for shape, _ in svds] == [(C.dims[1] + C.dims[3], C.dims[0] + C.dims[2])]


def test_graded_simplex_maps_are_connected_and_ranked_whole(svds):
    C = coboundary_matrices(simplex_boundary(8))
    assert C._components == (None,) * 7
    svds.clear()
    # the complex of its own simplicial complex is read off the star of a
    # vertex, which leaves one cell and no map
    assert cohomology_dimensions(C) == (1, 0, 0, 0, 0, 0, 0, 1)
    assert svds == []
    # the same maps without the simplicial complex are ranked whole:
    # delta_0 (36 x 9) ... delta_6 each take one whole SVD
    bare = GradedCochainComplex(dims=C.dims, coboundary=C.coboundary)
    assert bare._components == (None,) * 7
    assert cohomology_dimensions(bare) == (1, 0, 0, 0, 0, 0, 0, 1)
    assert svds == [(d.shape, "float64") for d in C.coboundary]


# ---------------------------------------------------------------------------
# each square is formed once, from integer nonzeros where it can be, and
# solved on its smaller side, or as w w* with Grams
# ---------------------------------------------------------------------------

_BOUND = 2.0**20


@st.composite
def _integer_maps(draw):
    """A sparse integer map of up to 48 x 48, zero shapes and the zero map
    included, whose nonzeros mix small integers with +-2^20."""
    m, n = draw(st.integers(0, 48)), draw(st.integers(0, 48))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array([1.0, -1.0, 2.0, -3.0, 12345.0, _BOUND, -_BOUND])
    density = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 1.0]))
    return rng.choice(pool, size=(m, n)) * (rng.random((m, n)) < density)


def _single_nonzero(m, n, value):
    x = np.zeros((m, n))
    x[m // 2, n // 3] = value
    return x


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_integer_maps())
@example(np.zeros((0, 40)))
@example(np.zeros((40, 0)))
@example(np.zeros((40, 33)))
@example(_single_nonzero(40, 33, _BOUND))
@example(_single_nonzero(1, 40, -_BOUND))
@example(np.full((40, 40), -_BOUND))
def test_squares_from_integer_nonzeros_have_the_bits_of_the_dense_products(x):
    found = torsion_engine._integer_nonzeros(x)
    assert found is not None
    rows, cols, values = found
    by_col = np.argsort(cols, kind="stable")
    # each square summed from its pairs, where they do not outnumber its
    # entries, and as _squares returns it
    pairs = (
        torsion_engine._pair_sums(rows, cols, values, x.shape[1]),
        torsion_engine._pair_sums(cols[by_col], rows[by_col], values[by_col], x.shape[0]),
    )
    squares = torsion_engine._squares(x, True)
    for got, dense in zip(pairs + squares, (x.T @ x, x @ x.T) * 2):
        if got is not None:
            assert got.dtype == dense.dtype and got.tobytes() == dense.tobytes()


def _cycle_map(n):
    return np.array(coboundary_matrices(cycle(n)).coboundary[0])


def _dense_path_cases():
    d = _cycle_map(40)
    at_bound, over_bound, fraction = d.copy(), d.copy(), d.copy()
    at_bound[0, 0] = _BOUND
    over_bound[0, 0] = _BOUND + 1
    fraction[0, 0] = 0.5
    # (map, Grams, what the nonzero scan of the map answers: accepted,
    # refused, or not run at all)
    return {
        "at-bound": (at_bound, None, [True]),
        "over-bound": (over_bound, None, [False]),
        "non-integer": (fraction, None, [False]),
        "complex": ((1 + 1j) * d, None, [False]),
        "split": (scipy.linalg.block_diag(_cycle_map(20), _cycle_map(20)), None, []),
        "small": (_cycle_map(20), None, []),
        "gram": (d, [2.0 * np.eye(40)] * 2, []),
    }


@pytest.mark.parametrize(
    "case", ["at-bound", "over-bound", "non-integer", "complex", "split", "small", "gram"]
)
def test_only_whole_integer_maps_without_grams_square_from_their_nonzeros(case, monkeypatch):
    d, gram, scans = _dense_path_cases()[case]
    C = GradedCochainComplex(dims=(d.shape[1], d.shape[0]), coboundary=(d,), gram=gram)
    scanned = []
    scan = torsion_engine._integer_nonzeros

    def record(x):
        found = scan(x)
        scanned.append((x.shape, found is not None))
        return found

    monkeypatch.setattr(torsion_engine, "_integer_nonzeros", record)
    (square, lap, _), (_, down, _) = _blocks(C)
    assert [accepted for shape, accepted in scanned if shape == d.shape] == scans
    if gram is None:
        # both paths give the bits of the whole products
        assert lap.tobytes() == (d.conj().T @ d).tobytes()
        assert square.tobytes() == (d.conj().T @ d).tobytes()
        assert down.tobytes() == (np.zeros((d.shape[0],) * 2) + d @ d.conj().T).tobytes()


def _smaller_side_case(name):
    rng = np.random.default_rng(31)
    if name.startswith("weighted "):
        C = _smaller_side_case(name[len("weighted "):])
        return C.with_gram([_random_spd(rng, n).astype(C.coboundary[0].dtype) for n in C.dims])
    if name == "lens":
        return lens(7, 2, 3)
    if name == "minimal_sphere":
        return minimal_sphere(3)
    return coboundary_matrices(from_expression(name))


@pytest.mark.parametrize(
    "name",
    ["cycle(9)", "cycle(600)"]
    + [f"simplex_boundary({k})" for k in range(4, 11)]
    + ["lens", "minimal_sphere"]
    + ["weighted simplex_boundary(5)", "weighted cycle(40)", "weighted lens"],
)
def test_the_smaller_square_moves_only_the_telescoped_roundoff(name, monkeypatch):
    # the square solved (the smaller one, or w w* with Grams) against the
    # other one: they share their positive spectrum, so the telescoped
    # log tau moves by roundoff only, and no rank moves
    C = _smaller_side_case(name)
    solved = torsion_engine._solved_square

    def other_side(up, outer, weighted):
        return up if solved(up, outer, weighted) is outer else outer

    chosen = reidemeister_torsion(C)
    monkeypatch.setattr(torsion_engine, "_solved_square", other_side)
    other = reidemeister_torsion(C)
    assert abs(chosen.log_scalar - other.log_scalar) <= 1e-12 * max(1.0, abs(other.log_scalar))
    assert chosen.kernel_dims == other.kernel_dims
    assert chosen.warnings == other.warnings == ()


def test_simplex_boundary_10_solves_each_square_on_its_smaller_side(
    eigensolves, eigensolve_orders
):
    reidemeister_torsion(coboundary_matrices(simplex_boundary(10)))
    # Delta_1 ... Delta_8 of the boundary of a simplex are 11 I, read off
    # the diagonal; the other solves are Delta_0, the squares of degrees
    # 0 to 8 and Delta_9, and the top degree's square is 0 x 0
    assert eigensolve_orders == [11, 11, 55, 165, 330, 462, 330, 165, 55, 11, 11]
    # degree 5 solves w w* of order 330, not w* w of order 462
    assert eigensolve_orders[6] == 330
    # the squares by eigh, the Laplacians for values only
    assert eigensolves == [("float64", "values")] + [("float64", "vectors")] * 9 + [("float64", "values")]


# ---------------------------------------------------------------------------
# incidence maps: exact ranks off the edge table, one SVD per component
# ---------------------------------------------------------------------------

def _oriented_multigraph(rng, vertices, edges, groups, zero_rows):
    """The edge-vertex incidence map of a random oriented multigraph:
    each edge joins two distinct vertices of one of ``groups`` vertex
    groups (a row of one +1 and one -1, parallel edges allowed), plus
    zero rows; the last vertex of each group is left isolated."""
    labels = rng.integers(groups, size=vertices)
    d = np.zeros((edges + zero_rows, vertices))
    for r in range(edges):
        group = np.flatnonzero(labels == labels[rng.integers(vertices)])[:-1]
        if group.size < 2:
            continue
        a, b = rng.choice(group, size=2, replace=False)
        d[r, a], d[r, b] = 1.0, -1.0
    return d[rng.permutation(d.shape[0])]


def _graph_rank(d: np.ndarray) -> int:
    """The rank of an incidence map d, oriented (rows of one +1 and one
    -1) or grounded (rows of a lone +1 or -1), read exactly with no SVD.
    Its columns and one ground node are the vertices of a graph, each
    nonzero row an edge, a lone entry joining its column to the ground.
    The graph's full incidence matrix has rank its vertices less b_0
    (Kirchhoff), and dropping the ground's column keeps that rank, since
    every row sums to zero.  b_0 is ``cohomology_dimensions`` of the
    graph's own 1-complex, which reads it off the edge table."""
    n = d.shape[1]
    edges = set()
    for row in d:
        (cols,) = np.nonzero(row)
        assert sorted(row[cols]) in ([], [-1.0], [1.0], [-1.0, 1.0])
        if cols.size:
            edges.add((int(cols[0]), int(cols[1]) if cols.size == 2 else n))
    lone = [(v,) for v in range(n + 1) if not any(v in e for e in edges)]
    C = coboundary_matrices(build_simplicial(sorted(edges) + lone, allow_mixed_dimension=True))
    assert C._own_incidence
    return n + 1 - cohomology_dimensions(C)[0]


def _svd_shapes(d: np.ndarray, blocks) -> list:
    """The (shape, dtype) of each SVD ``_rank(d, blocks)`` runs: one per
    component, or one of d taken whole."""
    parts = [d.shape] if blocks is None else [(rows.size, cols.size) for rows, cols in blocks]
    return [(shape, np.dtype(d.dtype).name) for shape in parts]


def _ranked_both_ways(d: np.ndarray, svds) -> int:
    """The rank of an incidence map, read off its graph with no SVD
    (``_graph_rank``), and checked against ``_rank``'s SVDs and
    ``matrix_rank``."""
    svds.clear()
    exact = _graph_rank(d)
    assert svds == []
    blocks = _map_blocks(d)
    got = _rank(d, blocks)
    assert type(got) is int
    assert got == np.linalg.matrix_rank(d) == exact
    assert svds == _svd_shapes(d, blocks)
    return got


@pytest.mark.parametrize(
    "vertices, edges, groups",
    [(12, 9, 3), (20, 30, 1), (28, 6, 4), (40, 35, 5), (60, 150, 2), (90, 40, 12)],
)
@pytest.mark.parametrize("seed", range(8))
def test_incidence_maps_are_ranked_exactly_without_an_svd(vertices, edges, groups, seed, svds):
    d = _oriented_multigraph(np.random.default_rng(1500 + seed), vertices, edges, groups, 3)
    _ranked_both_ways(d, svds)


def _cycle_with_holonomy(rank, U):
    return coboundary_matrices(cycle(40), LocalSystem(rank=rank, holonomy={(0, 1): U}))


def test_a_covering_graph_takes_one_svd(svds):
    # a swap holonomy makes delta_0 the incidence map of the connected
    # double cover of the 40-cycle, an 80-cycle; the local-system complex
    # is not its own incidence, so delta_0 takes its SVD
    C = _cycle_with_holonomy(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    d = C.coboundary[0]
    assert not C._own_incidence
    assert _ranked_both_ways(d, svds) == 79
    svds.clear()
    assert cohomology_dimensions(C) == (1, 1)
    assert svds == _svd_shapes(d, C._components[0])


@pytest.mark.parametrize(
    "rank, U",
    [
        (1, np.array([[-1.0]])),
        (2, np.array([[0.6, -0.8], [0.8, 0.6]])),
        (1, np.array([[cmath.exp(2j)]])),
    ],
    ids=["u1-minus-one", "rotation", "u1-e2i"],
)
def test_other_holonomies_keep_their_svd(rank, U, svds):
    C = _cycle_with_holonomy(rank, U)
    d = C.coboundary[0]
    assert not C._own_incidence
    svds.clear()
    assert cohomology_dimensions(C) == (0, 0)
    assert svds == [(d.shape, np.dtype(d.dtype).name)]
    assert _rank(d, None) == np.linalg.matrix_rank(d) == 40 * rank


def _near_misses(d):
    """Copies of the incidence map d, each one entry or dtype away from
    an incidence map."""
    r = int(np.flatnonzero(d.any(axis=1))[0])
    a, b = np.flatnonzero(d[r])
    c = int(np.flatnonzero(d[r] == 0)[0])
    scaled, same_sign, three, lone = d.copy(), d.copy(), d.copy(), d.copy()
    scaled[r] *= 2.0
    same_sign[r, [a, b]] = 1.0
    three[r, c] = 1.0
    # a lone +1 or -1 would join its column to a ground node; a lone 2
    # joins nothing
    lone[r, a], lone[r, b] = 2.0, 0.0
    return {
        "scaled-row": scaled,
        "row-of-ones": same_sign,
        "three-nonzeros": three,
        "lone-two": lone,
        "complex": d.astype(np.complex128),
    }


@pytest.mark.parametrize(
    "kind", ["scaled-row", "row-of-ones", "three-nonzeros", "lone-two", "complex"]
)
@pytest.mark.parametrize("source", ["cycle", "multigraph"])
def test_near_incidence_maps_keep_their_svds(source, kind, svds):
    if source == "cycle":
        d = coboundary_matrices(cycle(40)).coboundary[0]
    else:
        d = _oriented_multigraph(np.random.default_rng(1600), 90, 40, 12, 3)
    m = _near_misses(d)[kind]
    blocks = _map_blocks(m)
    assert _rank(m, blocks) == np.linalg.matrix_rank(m)
    assert svds == _svd_shapes(m, blocks)


def _path(n: int) -> np.ndarray:
    """The incidence map of a path through n columns, one -1 and one +1
    per row."""
    d = np.zeros((n - 1, n))
    d[np.arange(n - 1), np.arange(n - 1)] = -1.0
    d[np.arange(n - 1), np.arange(1, n)] = 1.0
    return d


def _grounded(d: np.ndarray, cols, sign: float = 1.0) -> np.ndarray:
    """d with one more row per column in ``cols``, holding a lone
    ``sign`` there: a row joining that column to the ground."""
    rows = np.zeros((len(cols), d.shape[1]))
    rows[np.arange(len(cols)), cols] = sign
    return np.vstack([d, rows])


def _cycle_map(n: int) -> np.ndarray:
    d = _path(n)
    closing = np.zeros((1, n))
    closing[0, 0], closing[0, -1] = 1.0, -1.0
    return np.vstack([d, closing])


@pytest.mark.parametrize(
    "d, rank",
    [
        (_grounded(_path(1), [0]), 1),
        (_grounded(_path(5), [0]), 5),
        (_grounded(_path(5), [0, 4], -1.0), 5),  # a cycle through the ground
        (_grounded(_path(40), [17]), 40),
        (_grounded(_cycle_map(3), [2]), 3),
        (_grounded(_cycle_map(40), [0, 20], -1.0), 40),
        (_grounded(scipy.linalg.block_diag(_path(6), _cycle_map(5)), [2]), 6 + 4),
        (np.array([[-1.0]]), 1),
        (np.array([[0.0, 0.0], [0.0, -1.0], [0.0, 0.0]]), 1),
    ],
    ids=[
        "lone-column", "path", "path-grounded-twice", "long-path", "triangle",
        "cycle-grounded-twice", "grounded-path-and-free-cycle", "single-minus-one",
        "minus-one-among-zero-rows",
    ],
)
def test_grounded_incidence_maps_are_ranked_exactly_without_an_svd(d, rank, svds):
    perm = np.random.default_rng(d.size)
    d = d[np.ix_(perm.permutation(d.shape[0]), perm.permutation(d.shape[1]))]
    assert _ranked_both_ways(d, svds) == rank


@pytest.mark.parametrize("seed", range(8))
def test_submatrices_of_incidence_maps_are_ranked_exactly(seed, svds):
    # dropping columns of an oriented incidence map leaves grounded rows
    # where a row lost one entry and zero rows where it lost both
    rng = np.random.default_rng(1700 + seed)
    d = _oriented_multigraph(rng, 60, 80, 3, 2)
    d = d[:, np.sort(rng.choice(60, size=45, replace=False))]
    assert (np.count_nonzero(d, axis=1) == 1).any()
    _ranked_both_ways(d, svds)


@pytest.mark.parametrize(
    "dimensions, model, expected",
    [
        (cohomology_dimensions, lambda: coboundary_matrices(cycle(40)), (1, 1)),
        (cohomology_dimensions, lambda: coboundary_matrices(simplex_boundary(5)), (1, 0, 0, 0, 1)),
        (cohomology_dimensions, lambda: lens(5, 1, 2), (0, 0, 0, 0)),
        (
            twisted_cohomology_dimensions,
            lambda: twisted_differential(coboundary_matrices(cycle(40))),
            (1, 1),
        ),
    ],
    ids=["cycle", "simplex", "lens", "zero-flux-cycle"],
)
def test_rank_nullity_answers_in_python_ints(dimensions, model, expected):
    dims = dimensions(model())
    assert dims == expected
    assert all(type(k) is int for k in dims)


def test_a_split_map_that_does_not_square_to_zero_is_refused():
    C = coboundary_matrices(simplex_boundary(8))
    T = twisted_differential(C, Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], 1.5)))
    assert None not in T._components
    d_odd = np.array(T.d_odd)
    i, j = np.argwhere(d_odd)[0]
    d_odd[i, j] *= 1.5
    with pytest.raises(FluxNotNilpotent):
        TwistedComplex(T.even_dim, T.odd_dim, T.d_even, d_odd, None, None)
    # the graded check runs on the components of the map applied first
    rng = np.random.default_rng(11)
    b = _permuted_map(rng, "real", _SPLIT_SHAPES)
    assert _map_blocks(b) is not None
    a = rng.standard_normal((4, b.shape[0]))
    with pytest.raises(ValidationError, match="does not square to zero at degree 0"):
        GradedCochainComplex(dims=(b.shape[1], b.shape[0], 4), coboundary=(b, a))


# ---------------------------------------------------------------------------
# exact Betti numbers off the closed star of a vertex
# ---------------------------------------------------------------------------

# the 7-vertex torus and the 6-vertex real projective plane
TORUS_7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
RP2_6 = [
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
]


def _exact_betti(K) -> tuple[int, ...]:
    """Betti numbers over Q from sympy's exact ranks of K's incidence."""
    ranks = [
        DomainMatrix.from_list(signed_incidence(K, p).tolist(), QQ).rank() for p in range(K.dim)
    ] + [0]
    return tuple(n - ranks[p] - (ranks[p - 1] if p else 0) for p, n in enumerate(K.f_vector))


def _ranked_whole(C: GradedCochainComplex) -> tuple[int, ...]:
    """C's dimensions with its maps ranked whole, without its simplicial
    complex."""
    return cohomology_dimensions(GradedCochainComplex(dims=C.dims, coboundary=C.coboundary))


@st.composite
def _complexes(draw):
    """Complexes of dimension 0 to 3, of mixed dimension, on up to nine
    vertices with ids far apart: lone vertices and disconnected parts
    come with the draws."""
    ids = draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=9, unique=True))
    top = st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True)
    tops = draw(st.lists(top.map(lambda t: tuple(sorted(t))), min_size=1, max_size=10, unique=True))
    return build_simplicial(tops, allow_mixed_dimension=True)


@settings(max_examples=150, deadline=None)
@given(_complexes())
def test_betti_numbers_off_a_star_match_sympy(K):
    C = coboundary_matrices(K)
    assert C._own_incidence
    exact = _exact_betti(K)
    assert cohomology_dimensions(C) == _ranked_whole(C) == exact


@pytest.mark.parametrize(
    "tops, expected", [(TORUS_7, (1, 2, 1)), (RP2_6, (1, 0, 0))], ids=["torus", "rp2"]
)
def test_surfaces_read_their_rational_betti_numbers(tops, expected):
    K = build_simplicial(tops)
    C = coboundary_matrices(K)
    assert _exact_betti(K) == expected
    assert cohomology_dimensions(C) == _ranked_whole(C) == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_spheres_are_read_off_a_star_without_an_svd(n, svds):
    C = coboundary_matrices(simplex_boundary(n))
    svds.clear()
    assert cohomology_dimensions(C) == (1,) + (0,) * (n - 2) + (1,)
    assert svds == []
    if n <= 5:
        assert _exact_betti(C.simplicial) == cohomology_dimensions(C)


def test_every_cycle_up_to_600_is_read_off_a_star_without_an_svd(svds):
    for n in range(3, 601):
        assert cohomology_dimensions(coboundary_matrices(cycle(n))) == (1, 1)
    assert svds == []


def test_zero_maps_on_a_simplicial_complex_read_its_f_vector():
    K = simplex_boundary(4)
    zero = tuple(np.zeros((K.n(p + 1), K.n(p))) for p in range(K.dim))
    C = GradedCochainComplex(dims=K.f_vector, coboundary=zero, simplicial=K)
    assert not C._own_incidence
    assert cohomology_dimensions(C) == K.f_vector


def test_a_gram_keeps_the_reading_off_a_star(svds):
    C = coboundary_matrices(simplex_boundary(5))
    G = C.with_gram([np.diag(np.arange(1.0, n + 1)) for n in C.dims])
    svds.clear()
    assert cohomology_dimensions(G) == cohomology_dimensions(C) == (1, 0, 0, 0, 1)
    assert svds == []


def test_a_lens_keeps_its_svds(svds):
    # delta_0 and delta_2 are complex units; delta_1 is a real zero
    assert cohomology_dimensions(lens(5, 1, 2)) == (0, 0, 0, 0)
    assert svds == [((1, 1), "complex128"), ((1, 1), "float64"), ((1, 1), "complex128")]


# ---------------------------------------------------------------------------
# flux twists of a simplicial complex: square-zero and ranks by degree block
# ---------------------------------------------------------------------------


def _whole_answer(T):
    """Rank-nullity of T from ``matrix_rank`` of its whole folded maps, or
    None when a singular value of either map lies within 5% of that map's
    cut, a decision roundoff can flip between any two SVDs."""
    ranks = []
    for d in (T.d_even, T.d_odd):
        s = np.linalg.svd(d, compute_uv=False) if d.size else np.zeros(0)
        cut = s.max(initial=0.0) * max(d.shape) * np.finfo(np.float64).eps
        if cut > 0 and (np.abs(s - cut) <= 0.05 * cut).any():
            return None
        ranks.append(int(np.linalg.matrix_rank(d)) if d.size else 0)
    e, o = ranks
    return (T.even_dim - e - o, T.odd_dim - e - o)


def _boundary_flux(C, B):
    """The closed degree-3 flux delta_2 B of a 2-cochain B."""
    return Cochain(degree=3, coefficients=C.coboundary[2] @ B)


# the flux's singular values cross the cut near modulus 1e-13, and the
# cut crosses the summands' singular values (all 3) near 1e13
_MODULI = st.one_of(st.floats(-140.0, 140.0), st.floats(-15.0, -11.0), st.floats(11.0, 15.0))


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([4, 6, 8]),
    exponent=_MODULI,
    phase=st.sampled_from([None, 0.0, 0.7, math.pi / 2, 2.5]),
)
@example(n=8, exponent=-140.0, phase=None)
@example(n=8, exponent=140.0, phase=0.7)
@example(n=6, exponent=-13.0, phase=None)
@example(n=8, exponent=13.0, phase=2.5)
@example(n=4, exponent=0.0, phase=math.pi / 2)
def test_block_ranks_of_a_top_flux_are_the_whole_matrix_answer(n, exponent, phase):
    C = coboundary_matrices(simplex_boundary(n))
    c = 10.0**exponent * (1.0 if phase is None else cmath.exp(1j * phase))
    T = twisted_differential(C, Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], c)))
    assert T._folded == (C, ((0, C.top),))
    whole = _whole_answer(T)
    if whole is not None:
        assert twisted_cohomology_dimensions(T) == whole


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), exponent=st.floats(-6.0, 6.0))
def test_block_ranks_and_residual_of_a_degree_three_flux(seed, exponent):
    # delta B on S^5 adds the blocks 0 -> 3, 1 -> 4 and 2 -> 5, so its
    # square has blocks of shift 2 and 4, and every delta_p is coupled
    C = coboundary_matrices(simplex_boundary(6))
    B = 10.0**exponent * np.random.default_rng(seed).standard_normal(C.dims[2])
    T = twisted_differential(C, _boundary_flux(C, B))
    assert T._folded == (C, ((0, 3), (1, 4), (2, 5)))
    whole = _whole_answer(T)
    if whole is not None:
        assert twisted_cohomology_dimensions(T) == whole
    dense = max(_product_norm(T.d_odd, T.d_even, None), _product_norm(T.d_even, T.d_odd, None))
    scale = 1.0 + np.linalg.norm(T.d_even) * np.linalg.norm(T.d_odd)
    assert abs(_folded_residual((T.d_even, T.d_odd), *T._folded) - dense) <= 1e-14 * scale


@pytest.mark.parametrize("model", [lambda: simplex_boundary(6), lambda: cycle(40)], ids=["s5", "cycle"])
def test_a_zero_flux_is_ranked_from_the_betti_numbers_alone(model, svds):
    C = coboundary_matrices(model())
    T = twisted_differential(C)
    assert T._folded == (C, ())
    svds.clear()
    betti = cohomology_dimensions(C)
    dims = twisted_cohomology_dimensions(T)
    assert svds == []
    assert dims == (sum(betti[0::2]), sum(betti[1::2])) == _whole_answer(T)


def test_a_coupled_value_between_the_cuts_sends_the_map_whole(svds):
    # on S^5 the coupled part of d_even has largest singular value
    # sqrt(7), and its summand delta_2 is bounded by u = sqrt(4 * 4) = 4;
    # a top flux c gives the coupled singular value c / 7, which for
    # c = 3.2e-13 lies between sqrt(7) * 63 eps and 4 * 63 eps, where the
    # whole map's cut could fall on either side of it
    C = coboundary_matrices(simplex_boundary(6))
    T = twisted_differential(C, Cochain(degree=5, coefficients=np.full(C.dims[5], 3.2e-13)))
    eps = np.finfo(np.float64).eps
    assert math.sqrt(7) * 63 * eps < 3.2e-13 / 7 <= 4 * 63 * eps
    svds.clear()
    dims = twisted_cohomology_dimensions(T)
    assert svds == [((28, 28), "float64"), (T.d_even.shape, "float64")]
    assert dims == _whole_answer(T)


def test_a_top_flux_square_multiplies_nothing():
    # shifts top + 1 and 2 top lie past the grading, and the blocks of
    # shift 2 are C's own residuals, exactly 0.0 on an incidence
    C = coboundary_matrices(simplex_boundary(8))
    assert C._square_residuals == (0.0,) * 6
    assert _folded_residual((None, None), C, ((0, C.top),)) == 0.0


def test_the_blockwise_check_refuses_a_broken_flux_block():
    C = coboundary_matrices(simplex_boundary(6))
    B = np.random.default_rng(4).standard_normal(C.dims[2])
    T = twisted_differential(C, _boundary_flux(C, B))
    d_even = np.array(T.d_even)
    d_even[C.dims[1], 0] += 1.0  # the first row of degree 3 in the odd layout, column of vertex 0
    fields = dict(
        even_dim=T.even_dim, odd_dim=T.odd_dim, d_even=d_even, d_odd=T.d_odd, gram_even=None, gram_odd=None
    )
    with pytest.raises(FluxNotNilpotent):
        _made_with(TwistedComplex, {"_folded": T._folded}, **fields)
    with pytest.raises(FluxNotNilpotent):
        TwistedComplex(**fields)


def test_copies_and_other_complexes_keep_the_whole_path(svds):
    C = coboundary_matrices(simplex_boundary(6))
    T = twisted_differential(C, Cochain(degree=5, coefficients=np.full(C.dims[5], 2.0)))
    copy = dataclasses.replace(T)
    assert copy._folded is None
    svds.clear()
    assert twisted_cohomology_dimensions(copy) == twisted_cohomology_dimensions(T) == (0, 0)
    assert svds == [(T.d_even.shape, "float64"), (T.d_odd.shape, "float64"), ((28, 28), "float64")]
    # a bare minimal model and a local system: nothing is recorded
    bare = twisted_differential(minimal_sphere(5), Cochain(degree=5, coefficients=np.array([2.0])))
    assert bare._folded is None
    assert twisted_cohomology_dimensions(bare) == _whole_answer(bare) == (0, 0)
    local = twisted_differential(_cycle_with_holonomy(1, np.array([[-1.0]])))
    assert local._folded is None
    # the invariant complex of a bundle is built plainly
    assert build_invariant_complex(random_bundle(3, 4))._folded is None


def test_a_gram_twist_is_ranked_by_block(svds):
    C = coboundary_matrices(simplex_boundary(6))
    G = C.with_gram([np.diag(np.arange(1.0, n + 1)) for n in C.dims])
    T = twisted_differential(G, Cochain(degree=5, coefficients=np.full(C.dims[5], 1.5 - 0.5j)))
    assert T._folded[0] is G and G._own_incidence
    svds.clear()
    assert twisted_cohomology_dimensions(T) == (0, 0)
    assert svds == [((28, 28), "complex128")]


def test_a_nonzero_cup_square_is_still_refused():
    C = coboundary_matrices(simplex_boundary(8))
    B = np.random.default_rng(2).standard_normal(C.dims[2])
    with pytest.raises(FluxNotNilpotent, match="cup square in degree 6"):
        twisted_differential(C, _boundary_flux(C, B))


# ---------------------------------------------------------------------------
# the incidence verdict, decided once, and square-zero from the face tables
# ---------------------------------------------------------------------------


def test_the_incidence_verdict_is_kept_by_gram_copies(monkeypatch):
    C = coboundary_matrices(simplex_boundary(5))
    assert vars(C)["_own_incidence"] is True
    # a copy with Grams neither reads the maps nor multiplies them again
    monkeypatch.setattr(chain_models, "_faces_commute", None)
    monkeypatch.setattr(chain_models, "_product_norm", None)
    G = C.with_gram([np.eye(n) for n in C.dims])
    assert G._own_incidence and G._square_residuals is C._square_residuals
    assert all(a is b for a, b in zip(G.coboundary, C.coboundary)) and G.simplicial is C.simplicial


def test_a_hand_made_map_on_a_simplicial_complex_reads_false():
    K = simplex_boundary(5)
    C = coboundary_matrices(K)
    flipped = (-C.coboundary[0],) + C.coboundary[1:]
    H = GradedCochainComplex(dims=C.dims, coboundary=flipped, simplicial=K)
    assert not H._own_incidence
    assert H._square_residuals == tuple(
        _product_norm(a, b, None) for a, b in zip(flipped[1:], flipped)
    )
    assert cohomology_dimensions(H) == cohomology_dimensions(C)


@settings(max_examples=80, deadline=None)
@given(_complexes())
def test_incidence_residuals_read_the_face_tables(K):
    C = coboundary_matrices(K)
    assert C._own_incidence
    assert C._square_residuals == (0.0,) * max(K.dim - 1, 0)
    assert all(_faces_commute(K, p) for p in range(K.dim - 1))
    dense = tuple(_product_norm(a, b, None) for a, b in zip(C.coboundary[1:], C.coboundary))
    assert dense == C._square_residuals


def test_face_tables_that_do_not_commute_are_multiplied_and_refused():
    K = simplex_boundary(4)
    faces = list(K.faces)
    swapped = np.array(faces[1])
    swapped[0, [0, 1]] = swapped[0, [1, 0]]  # triangle 0 lists two edges in the wrong order
    swapped.setflags(write=False)
    faces[1] = swapped
    broken = SimplicialComplex(vertices=K.vertices, levels=K.levels, faces=tuple(faces))
    maps = tuple(signed_incidence(broken, p) for p in range(broken.dim))
    assert not _faces_commute(broken, 0)
    with pytest.raises(ValidationError, match="does not square to zero at degree 0"):
        GradedCochainComplex(dims=broken.f_vector, coboundary=maps, simplicial=broken)
