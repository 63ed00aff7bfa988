"""Gram-aware spectral decompositions and pseudo-determinants.

The triangle Laplacian oracle is computed symbolically, independent of
any numerics in the package.  scipy's complex Hermitian solver is the
reference for the real-arithmetic path.
"""

import warnings

import numpy as np
import pytest
import scipy.linalg
import sympy

from torsionlab import hermitian_spectrum
from torsionlab.builders import cycle
from torsionlab.chain_models import coboundary_matrices, signed_incidence
from torsionlab.errors import (
    GramNotPositive,
    NegativeEigenvalue,
    NotHermitian,
    ValidationError,
)
from torsionlab.spectral import (
    GAP_RATIO,
    KERNEL_TOL_FACTOR,
    _gram_factor,
    default_kernel_tol,
    harmonic_basis_of,
    pseudodet_of,
)


def test_triangle_laplacian_against_symbolic_charpoly():
    # oracle: charpoly of the triangle vertex Laplacian is x(x-3)^2
    d0 = signed_incidence(cycle(3), 0)
    lap = sympy.Matrix((d0.T @ d0).tolist())
    x = sympy.symbols("x")
    poly = lap.charpoly(x).as_expr()
    assert sympy.expand(poly - x * (x - 3) ** 2) == 0

    dec = hermitian_spectrum((d0.T @ d0).astype(np.complex128))
    assert np.allclose(dec.eigenvalues, [0.0, 3.0, 3.0], atol=1e-12)
    assert dec.kernel_dimension == 1
    pd = pseudodet_of(dec)
    assert pd.value == pytest.approx(9.0, rel=1e-12)


def test_eigenvalues_match_scipy_generalized_solver():
    # a G-self-adjoint operator is G^-1 H with H Hermitian; its spectrum
    # is the generalized eigenvalue problem (H, G)
    rng = np.random.default_rng(21)
    n = 7
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = a + a.conj().T
    g = rng.standard_normal((n, n))
    G = (g @ g.T + n * np.eye(n)).astype(np.complex128)
    A = np.linalg.solve(G, H)
    dec = hermitian_spectrum(A, G)
    reference = scipy.linalg.eigh(H, G, eigvals_only=True)
    assert np.allclose(dec.eigenvalues, reference, atol=1e-10)


def test_gram_larger_than_one_inverse_block_matches_scipy():
    # n = 75 splits unevenly twice before the Cholesky factor's inverse
    # reaches blocks small enough to invert directly
    rng = np.random.default_rng(23)
    n = 75
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = a + a.conj().T
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    G = g @ g.conj().T + n * np.eye(n)
    dec = hermitian_spectrum(np.linalg.solve(G, H), G)
    reference = scipy.linalg.eigh(H, G, eigvals_only=True)
    assert np.allclose(dec.eigenvalues, reference, atol=1e-10)
    V = dec.eigenvectors
    assert np.allclose(V.conj().T @ G @ V, np.eye(n), atol=1e-10)


def test_eigenvectors_are_gram_orthonormal_and_solve():
    rng = np.random.default_rng(22)
    n = 6
    h = rng.standard_normal((n, n))
    H = (h + h.T).astype(np.complex128)
    g = rng.standard_normal((n, n))
    G = (g @ g.T + n * np.eye(n)).astype(np.complex128)
    A = np.linalg.solve(G, H)
    dec = hermitian_spectrum(A, G)
    V = dec.eigenvectors
    assert np.allclose(V.conj().T @ G @ V, np.eye(n), atol=1e-10)
    assert np.allclose(A @ V, V @ np.diag(dec.eigenvalues), atol=1e-8)


def test_default_kernel_tol_is_relative():
    assert default_kernel_tol(np.array([0.0, 2.0, 8.0])) == KERNEL_TOL_FACTOR * 8.0
    assert default_kernel_tol(np.array([0.0, 0.0])) == KERNEL_TOL_FACTOR
    assert default_kernel_tol(np.array([])) == KERNEL_TOL_FACTOR


def test_kernel_split_and_gap_warning():
    A = np.diag([0.0, 9e-10, 3e-9, 1.0]).astype(np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dec = hermitian_spectrum(A)
        pd = pseudodet_of(dec)
    # default tol is 1e-9 * spectral radius = 1e-9: two kernel modes, and
    # the smallest retained eigenvalue sits within GAP_RATIO of the cut
    assert dec.kernel_dimension == 2
    assert pd.kernel_dim == 2
    assert 3e-9 / dec.kernel_tol < GAP_RATIO
    assert not caught  # recorded on the result, never raised as a Python warning
    assert pd.warnings and "poorly separated" in pd.warnings[0]
    assert pd.value == pytest.approx(3e-9 * 1.0, rel=1e-12)


def test_clean_spectrum_has_no_warning():
    A = np.diag([0.0, 1.0, 2.0]).astype(np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pd = pseudodet_of(hermitian_spectrum(A))
    assert not caught
    assert pd.warnings == ()
    assert pd.value == pytest.approx(2.0, rel=1e-12)


def test_pseudodet_empty_matrix_is_one():
    pd = pseudodet_of(hermitian_spectrum(np.zeros((0, 0), dtype=np.complex128)))
    assert pd.log_value == 0.0
    assert pd.value == 1.0
    assert pd.kernel_dim == 0


def test_pseudodet_zero_matrix_is_one():
    pd = pseudodet_of(hermitian_spectrum(np.zeros((3, 3), dtype=np.complex128)))
    assert pd.value == 1.0
    assert pd.kernel_dim == 3


def test_negative_eigenvalue_rejected():
    with pytest.raises(NegativeEigenvalue):
        pseudodet_of(hermitian_spectrum(np.diag([-1.0, 1.0]).astype(np.complex128)))


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))


def test_gram_hermiticity_mismatch_rejected():
    # A is G-self-adjoint iff G A = A^+ G; break that on purpose
    A = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=np.complex128)
    G = np.eye(2, dtype=np.complex128)
    with pytest.raises(NotHermitian):
        hermitian_spectrum(A, G)


def test_indefinite_gram_rejected():
    A = np.eye(2, dtype=np.complex128)
    G = np.diag([1.0, -1.0]).astype(np.complex128)
    with pytest.raises(GramNotPositive):
        hermitian_spectrum(A, G)


def test_gram_checked_by_the_solver_too():
    A = np.eye(2)
    with pytest.raises(GramNotPositive, match="gram is not Hermitian"):
        hermitian_spectrum(A, np.array([[1.0, 8e-13], [-8e-13, 1.0]]))
    with pytest.raises(GramNotPositive, match=r"gram has shape \(3, 3\), expected \(2, 2\)"):
        hermitian_spectrum(A, np.eye(3))


def test_harmonic_basis_spans_kernel():
    C = coboundary_matrices(cycle(4))
    d0 = C.delta(0)
    lap = (d0.conj().T @ d0).astype(np.complex128)
    hb = harmonic_basis_of(hermitian_spectrum(lap), label="H^0")
    assert hb.dimension == 1
    assert hb.label == "H^0"
    # kernel of the vertex Laplacian is the constants
    v = hb.vectors[:, 0]
    assert np.allclose(v, v[0])
    assert np.allclose(np.linalg.norm(v), 1.0)


def test_harmonic_basis_gram_orthonormal():
    rng = np.random.default_rng(40)
    g = rng.standard_normal((4, 4))
    G = (g @ g.T + 4 * np.eye(4)).astype(np.complex128)
    A = np.zeros((4, 4), dtype=np.complex128)  # everything harmonic
    dec = hermitian_spectrum(A, G)
    hb = harmonic_basis_of(dec)
    assert hb.dimension == 4
    assert np.allclose(hb.vectors.conj().T @ G @ hb.vectors, np.eye(4), atol=1e-10)


# ---------------------------------------------------------------------------
# arithmetic follows the dtype; values-only solves
# ---------------------------------------------------------------------------

def test_solve_dtype_follows_operator_and_gram(eigensolves):
    A = np.diag([0.0, 1.0, 2.0])
    G = np.diag([1.0, 2.0, 4.0])
    assert hermitian_spectrum(A).eigenvectors.dtype == np.float64
    assert hermitian_spectrum(A, G, vectors=False).eigenvectors is None
    assert hermitian_spectrum(A.astype(np.complex128)).eigenvectors.dtype == np.complex128
    # a complex Gram promotes a real operator to a complex solve
    assert hermitian_spectrum(A, G.astype(np.complex128)).eigenvectors.dtype == np.complex128
    assert eigensolves == [
        ("float64", "vectors"),
        ("float64", "values"),
        ("complex128", "vectors"),
        ("complex128", "vectors"),
    ]


def test_values_only_solve_has_no_kernel_vectors():
    dec = hermitian_spectrum(np.diag([0.0, 0.0, 5.0]), vectors=False)
    assert dec.eigenvectors is None
    assert dec.kernel_dimension == 2
    assert pseudodet_of(dec).value == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError, match="without eigenvectors"):
        dec.kernel_vectors
    with pytest.raises(ValueError, match="without eigenvectors"):
        harmonic_basis_of(dec)
    empty = hermitian_spectrum(np.zeros((0, 0)), vectors=False)
    assert empty.eigenvectors is None and empty.kernel_dimension == 0


def _random_psd(rng, n, rank):
    f = rng.standard_normal((rank, n))
    return f.T @ f


@pytest.mark.parametrize("with_gram", [False, True], ids=["identity", "gram"])
@pytest.mark.parametrize("seed", range(4))
def test_real_path_agrees_with_scipy_complex_solver(seed, with_gram):
    rng = np.random.default_rng(300 + seed)
    n, rank = 14, 9
    H = _random_psd(rng, n, rank)
    G = None
    if with_gram:
        g = rng.standard_normal((n, n))
        G = g @ g.T + n * np.eye(n)
    A = H if G is None else np.linalg.solve(G, H)

    dec = hermitian_spectrum(A, G)
    values = hermitian_spectrum(A, G, vectors=False)
    cast = None if G is None else G.astype(np.complex128)
    reference = scipy.linalg.eigh(H.astype(np.complex128), cast, eigvals_only=True)
    bound = 1e-12 * np.linalg.norm(A)
    assert dec.eigenvectors.dtype == np.float64
    assert np.max(np.abs(dec.eigenvalues - reference)) <= bound
    assert np.max(np.abs(values.eigenvalues - reference)) <= bound

    complex_dec = hermitian_spectrum(A.astype(np.complex128), cast)
    assert dec.kernel_dimension == values.kernel_dimension == complex_dec.kernel_dimension
    assert dec.kernel_dimension == n - rank

    V = dec.eigenvectors
    gram = np.eye(n) if G is None else G
    assert np.allclose(V.T @ gram @ V, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_is_refused(bad):
    A = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="operator has a non-finite entry"):
        hermitian_spectrum(A)
    with pytest.raises(ValidationError, match="operator has a non-finite entry"):
        hermitian_spectrum(A, np.eye(2), vectors=False)
    with pytest.raises(ValidationError, match="gram has a non-finite entry"):
        hermitian_spectrum(np.eye(2), A)


def test_a_gram_factor_solves_bit_identically_without_refactoring(factorizations, lower_inverses):
    rng = np.random.default_rng(17)
    n = 6
    g = rng.standard_normal((n, n))
    G = g @ g.T + n * np.eye(n)
    A = np.linalg.solve(G, _random_psd(rng, n, 4))
    direct = {vectors: hermitian_spectrum(A, G, vectors=vectors) for vectors in (True, False)}
    assert (len(factorizations), len(lower_inverses)) == (2, 2)

    factor = _gram_factor(G, n)
    assert factor.gram is G and len(factorizations) == 3
    for vectors in (True, False, True, False):
        reused = hermitian_spectrum(A, factor, vectors=vectors)
        assert np.array_equal(reused.eigenvalues, direct[vectors].eigenvalues)
        if vectors:
            assert np.array_equal(reused.eigenvectors, direct[vectors].eigenvectors)
    # the record's inverse is formed on its first solve and kept
    assert (len(factorizations), len(lower_inverses)) == (3, 3)


def test_a_gram_factor_of_the_wrong_size_is_refused():
    with pytest.raises(GramNotPositive, match="gram has shape"):
        hermitian_spectrum(np.eye(3), _gram_factor(np.eye(2), 2))
