"""Hermitian spectral decompositions and pseudo-determinants.

The triangle Laplacian oracle is computed symbolically, independent of
any numerics in the package.  scipy's complex Hermitian solver is the
reference for the real-arithmetic path, and scipy's connected
components the reference for the blocks a solve splits into.  No Gram
reaches this layer's solver; Gram-weighted solves are tested through the
torsion engine (``test_torsion_engine.py``) and Gram refusals through
the complexes that check them (``test_chain_models.py``).
"""

import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph
import sympy

from torsionlab import hermitian_spectrum, spectral
from torsionlab.builders import cycle, simplex_boundary
from torsionlab.chain_models import (
    Cochain,
    coboundary_matrices,
    signed_incidence,
    twisted_differential,
)
from torsionlab.errors import (
    NegativeEigenvalue,
    NotHermitian,
    ValidationError,
)
from torsionlab.spectral import (
    GAP_RATIO,
    KERNEL_TOL_FACTOR,
    SPLIT_MIN_ORDER,
    BlockDiagonal,
    SpectralDecomposition,
    _blocks_of,
    _gram_factor,
    _refuse_imprecise,
    default_kernel_tol,
    pseudodet_of,
)
from torsionlab.torsion_engine import _blocks

from direct_sums import laid_out


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
    assert math.exp(pd.log_value) == pytest.approx(9.0, rel=1e-12)


def test_default_kernel_tol_is_relative():
    assert default_kernel_tol(np.array([0.0, 2.0, 8.0])) == KERNEL_TOL_FACTOR * 8.0
    assert default_kernel_tol(np.array([0.0, 0.0])) == KERNEL_TOL_FACTOR
    assert default_kernel_tol(np.array([])) == KERNEL_TOL_FACTOR


def _operator(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "complex":
        a = a + 1j * rng.standard_normal((n, n))
    A = a @ a.conj().T
    # negative-dominated: the largest modulus is the most negative end
    return A - 3.0 * np.abs(A).max() * np.eye(n) if kind == "negative" else A


@pytest.mark.parametrize("kind", ["real", "complex", "negative", "zero"])
@pytest.mark.parametrize("orders", [(5,), (40,), (12, 11, 13)])
@pytest.mark.parametrize("vectors", [False, True])
def test_the_default_cut_is_default_kernel_tol_bit_for_bit(
    kind, orders, vectors, eigensolves, eigensolve_orders
):
    # read off the two ends of the ascending spectrum, whole or merged
    # from blocks, it is the reduction over the whole spectrum.  Three
    # blocks, each at most half of their order 36 >= SPLIT_MIN_ORDER, are
    # solved one at a time; a complex operator's last block is real, and
    # solved in float64
    last = "real" if kind == "complex" else kind
    kinds = [kind] * (len(orders) - 1) + [last]
    A = scipy.linalg.block_diag(*(_operator(k, m) for k, m in zip(kinds, orders)))
    dec = hermitian_spectrum(A, vectors=vectors)
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    assert dec.kernel_tol.hex() == default_kernel_tol(dec.eigenvalues).hex()
    if kind == "negative":
        assert abs(dec.eigenvalues[0]) > abs(dec.eigenvalues[-1])
    if kind == "zero":
        assert eigensolves == []
    elif len(orders) > 1:
        assert sorted(eigensolve_orders) == sorted(orders)
        dtypes = ["complex128", "complex128", "float64"] if kind == "complex" else ["float64"] * 3
        assert [dtype for dtype, _ in eigensolves] == dtypes
    else:
        assert eigensolve_orders == list(orders)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_sliced_scans_refuse_a_non_finite_entry_anywhere(bad, dtype):
    # three slices of rows, the last one short: first, last and boundary
    # rows and columns, above and below the diagonal
    if dtype is np.float64 and isinstance(bad, complex):
        return
    n = 2 * spectral._SLICE_ROWS + 7
    edges = [0, spectral._SLICE_ROWS - 1, spectral._SLICE_ROWS, 2 * spectral._SLICE_ROWS, n - 1]
    message = "operator has a non-finite entry"
    for i in edges:
        for j in edges:
            A = _symmetric(n, dtype)
            A[i, j] = bad
            # an inf on the diagonal leaves inf - inf = NaN in A - A*
            with np.errstate(invalid="ignore"):
                for scan in (spectral._largest, spectral._hermitian_residual):
                    with pytest.raises(ValidationError, match=message):
                        scan(A)
            with pytest.raises(ValidationError, match=message):
                hermitian_spectrum(A, vectors=False)


def test_kernel_split_and_gap_warning():
    A = np.diag([0.0, 9e-10, 3e-9, 1.0]).astype(np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dec = hermitian_spectrum(A)
        pd = pseudodet_of(dec)
    # default tol is 1e-9 * spectral radius = 1e-9: two kernel modes, and
    # the smallest retained eigenvalue sits within GAP_RATIO of the cut
    assert dec.kernel_dimension == 2
    assert 3e-9 / dec.kernel_tol < GAP_RATIO
    assert not caught  # recorded on the result, never raised as a Python warning
    assert pd.warnings and "poorly separated" in pd.warnings[0]
    assert math.exp(pd.log_value) == pytest.approx(3e-9 * 1.0, rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_kernel_cut_is_the_mask_of_eigenvalues_at_or_below_the_tolerance(seed):
    # the cut is read as an index into the ascending spectrum; it selects
    # what the boolean mask ev <= tol selects, ties with the tolerance,
    # negative roundoff and empty sides included
    rng = np.random.default_rng(seed)
    tol = 1e-3
    ev = np.sort(np.concatenate([
        rng.choice([0.0, tol, -1e-16, 1e-16], size=rng.integers(0, 4)),
        rng.uniform(tol / 50, 1.0, size=rng.integers(0, 5)),
    ]))
    V = rng.standard_normal((ev.size, ev.size))
    dec = SpectralDecomposition(eigenvalues=ev, eigenvectors=V, kernel_tol=tol)
    kept = ev <= tol
    assert dec.kernel_dimension == np.count_nonzero(kept)
    assert np.array_equal(dec.positive_eigenvalues, ev[~kept])
    assert np.array_equal(dec.eigenvectors[:, :dec.kernel_dimension], V[:, kept])
    discarded, retained = ev[kept], ev[~kept]
    floor = float(np.max(np.abs(discarded))) if discarded.size else 0.0
    poor = bool(retained.size) and floor > 0.0 and retained.min() / floor < GAP_RATIO
    assert bool(pseudodet_of(dec).warnings) == poor


def test_clean_spectrum_has_no_warning():
    A = np.diag([0.0, 1.0, 2.0]).astype(np.complex128)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pd = pseudodet_of(hermitian_spectrum(A))
    assert not caught
    assert pd.warnings == ()
    assert math.exp(pd.log_value) == pytest.approx(2.0, rel=1e-12)


def test_pseudodet_empty_matrix_is_one():
    dec = hermitian_spectrum(np.zeros((0, 0), dtype=np.complex128))
    pd = pseudodet_of(dec)
    assert pd.log_value == 0.0
    assert math.exp(pd.log_value) == 1.0
    assert dec.kernel_dimension == 0


def test_pseudodet_zero_matrix_is_one():
    dec = hermitian_spectrum(np.zeros((3, 3), dtype=np.complex128))
    assert math.exp(pseudodet_of(dec).log_value) == 1.0
    assert dec.kernel_dimension == 3


def test_negative_eigenvalue_rejected():
    dec = hermitian_spectrum(np.diag([-1.0, 1.0]).astype(np.complex128))
    not_psd = r"^eigenvalue -1.000000e\+00 below -1.000e-09; operator is not psd$"
    for read in (pseudodet_of, _refuse_imprecise):
        with pytest.raises(NegativeEigenvalue, match=not_psd):
            read(dec)
    # one within n eps of the spectrum's size is roundoff, and the
    # tolerance is named as the cause
    dec = hermitian_spectrum(np.diag([-1e-16, 1.0]), kernel_tol=1e-20)
    for read in (pseudodet_of, _refuse_imprecise):
        with pytest.raises(NegativeEigenvalue, match="is roundoff of a positive semidefinite"):
            read(dec)


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128))


def test_harmonic_basis_spans_kernel():
    C = coboundary_matrices(cycle(4))
    d0 = C.delta(0)
    lap = (d0.conj().T @ d0).astype(np.complex128)
    dec = hermitian_spectrum(lap)
    kernel = dec.eigenvectors[:, :dec.kernel_dimension]
    assert kernel.shape == (4, 1)
    # kernel of the vertex Laplacian is the constants
    v = kernel[:, 0]
    assert np.allclose(v, v[0])
    assert np.allclose(np.linalg.norm(v), 1.0)


# ---------------------------------------------------------------------------
# arithmetic follows the dtype; values-only solves
# ---------------------------------------------------------------------------

def test_solve_dtype_follows_operator(eigensolves):
    A = np.diag([0.0, 1.0, 2.0])
    assert hermitian_spectrum(A).eigenvectors.dtype == np.float64
    assert hermitian_spectrum(A, vectors=False).eigenvectors is None
    assert hermitian_spectrum(A.astype(np.complex128)).eigenvectors.dtype == np.complex128
    assert eigensolves == [
        ("float64", "vectors"),
        ("float64", "values"),
        ("complex128", "vectors"),
    ]


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_zero_operator_is_solved_without_lapack_bit_for_bit(n, dtype, eigensolves):
    A = np.zeros((n, n), dtype=dtype)
    dec, values = hermitian_spectrum(A), hermitian_spectrum(A, vectors=False)
    assert eigensolves == []
    w, V = np.linalg.eigh(A)
    assert dec.eigenvalues.tobytes() == values.eigenvalues.tobytes() == w.tobytes()
    assert dec.eigenvectors.dtype == V.dtype and dec.eigenvectors.tobytes() == V.tobytes()
    assert values.eigenvectors is None
    assert dec.kernel_tol == values.kernel_tol == KERNEL_TOL_FACTOR
    assert dec.kernel_dimension == n


def test_positive_roundoff_above_the_cut_is_refused():
    # zero up to roundoff, yet kept above a cut far below the roundoff
    dec = hermitian_spectrum(np.diag([1e-17, 1.0]), kernel_tol=1e-20)
    for read in (pseudodet_of, _refuse_imprecise):
        with pytest.raises(NegativeEigenvalue, match="below the precision of the solve"):
            read(dec)
    # the default cut puts it in the kernel
    default = hermitian_spectrum(np.diag([1e-17, 1.0]))
    pseudodet_of(default)
    assert default.kernel_dimension == 1


def test_no_gram_is_taken():
    with pytest.raises(TypeError):
        hermitian_spectrum(np.eye(2), np.eye(2))


def test_values_only_solve_has_no_kernel_vectors():
    dec = hermitian_spectrum(np.diag([0.0, 0.0, 5.0]), vectors=False)
    assert dec.eigenvectors is None
    assert dec.kernel_dimension == 2
    assert math.exp(pseudodet_of(dec).log_value) == pytest.approx(5.0, rel=1e-15)
    empty = hermitian_spectrum(np.zeros((0, 0)), vectors=False)
    assert empty.eigenvectors is None and empty.kernel_dimension == 0


def _random_psd(rng, n, rank):
    f = rng.standard_normal((rank, n))
    return f.T @ f


@pytest.mark.parametrize("seed", range(4))
def test_real_path_agrees_with_scipy_complex_solver(seed):
    rng = np.random.default_rng(300 + seed)
    n, rank = 14, 9
    H = _random_psd(rng, n, rank)

    dec = hermitian_spectrum(H)
    values = hermitian_spectrum(H, vectors=False)
    reference = scipy.linalg.eigh(H.astype(np.complex128), eigvals_only=True)
    bound = 1e-12 * np.linalg.norm(H)
    assert dec.eigenvectors.dtype == np.float64
    assert np.max(np.abs(dec.eigenvalues - reference)) <= bound
    assert np.max(np.abs(values.eigenvalues - reference)) <= bound

    complex_dec = hermitian_spectrum(H.astype(np.complex128))
    assert dec.kernel_dimension == values.kernel_dimension == complex_dec.kernel_dimension
    assert dec.kernel_dimension == n - rank

    V = dec.eigenvectors
    assert np.allclose(V.T @ V, np.eye(n), atol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_is_refused(bad):
    A = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError, match="operator has a non-finite entry"):
        hermitian_spectrum(A)
    with pytest.raises(ValidationError, match="operator has a non-finite entry"):
        hermitian_spectrum(A, vectors=False)


# ---------------------------------------------------------------------------
# the Hermitian residual scan
# ---------------------------------------------------------------------------

def _symmetric(n, dtype):
    """A Hermitian operator of order n whose largest entry is 4, with one
    zero pair at (0, n - 1) left for a residual."""
    rng = np.random.default_rng(n)
    A = rng.uniform(-1.0, 1.0, (n, n))
    if dtype is np.complex128:
        A = A + 1j * rng.uniform(-1.0, 1.0, (n, n))
    A = 0.5 * (A + A.conj().T)
    A[0, 0] = 4.0
    A[0, -1] = A[-1, 0] = 0.0
    return A.astype(dtype)


@pytest.mark.parametrize("n", [3, 10, SPLIT_MIN_ORDER + 8])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_hermitian_residual_is_cut_at_its_tolerance(n, dtype):
    # one entry off its mirror by exactly tol = 1e-10 * 4 is accepted, by
    # the next float above it refused, with the residual in the message;
    # a complex residual is along the imaginary axis, where its modulus
    # is exact
    tol = spectral.HERMITIAN_TOL * 4.0
    unit = 1j if dtype is np.complex128 else 1.0
    for upper in (True, False):
        at = (0, n - 1) if upper else (n - 1, 0)
        A = _symmetric(n, dtype)
        A[at] = tol * unit
        hermitian_spectrum(A, vectors=False)
        A[at] = np.nextafter(tol, 1.0) * unit
        message = f"operator is not Hermitian (residual {np.nextafter(tol, 1.0):.3e})"
        with pytest.raises(NotHermitian, match=re.escape(message)):
            hermitian_spectrum(A)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [3, SPLIT_MIN_ORDER + 8])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_non_finite_entry_in_one_triangle_is_refused(bad, n, dtype):
    message = "operator has a non-finite entry; its data overflowed float64"
    for at in ((0, n - 1), (n - 1, 0)):
        A = _symmetric(n, dtype)
        A[at] = bad
        for vectors in (True, False):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                hermitian_spectrum(A, vectors=vectors)


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_a_residual_that_overflows_is_refused_as_non_finite(dtype):
    # each entry is finite, but A - A* reads 2e308, past the float64 range
    A = _symmetric(4, dtype)
    A[0, 3], A[3, 0] = 1e308, -1e308
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="non-finite entry"):
        hermitian_spectrum(A)


def test_complex_nonzero_mask_reads_either_part():
    # an entry with a zero real part (0.75j) or a zero imaginary part is
    # nonzero; 0j and -0.0 either way round are zero; a transposed view
    # reads the same as its copy
    values = np.array(
        [0.75j, 2.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), np.nan, 1e-300j, 0.0]
    )
    rng = np.random.default_rng(3)
    a = rng.choice(values, size=(40, 45))
    for x in (a, a.T, a[::2, 1::3]):
        got = spectral._nonzero(x)
        assert got.dtype == bool and got.shape == x.shape
        assert np.array_equal(got, x != 0)
    assert np.array_equal(spectral._nonzero(a.real), a.real != 0)


# ---------------------------------------------------------------------------
# solves split on the exact zero pattern
# ---------------------------------------------------------------------------

def _components(A):
    """Block labels of A from scipy's connected components of the graph
    of its nonzeros, an oracle that shares no code with ``_blocks_of``."""
    _, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(A != 0), directed=True, connection="weak"
    )
    return labels


def _same_partition(a, b):
    # two labelings name the same blocks when each label of one maps to
    # exactly one label of the other
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


def _permuted_blocks(rng, dtype):
    """A randomly permuted block-diagonal psd matrix: 1 x 1 blocks, zero
    rows and rank-deficient dense blocks, of order at least the split
    order."""
    blocks = [np.array([[v]]) for v in rng.uniform(0.5, 3.0, 14)]
    blocks += [np.zeros((1, 1))] * 5
    for size in rng.integers(2, 13, 4):
        f = rng.standard_normal((size - 1, size))
        if dtype is np.complex128:
            f = f + 1j * rng.standard_normal((size - 1, size))
        blocks.append(f.conj().T @ f)
    B = scipy.linalg.block_diag(*blocks).astype(dtype)
    perm = rng.permutation(B.shape[0])
    return B[np.ix_(perm, perm)]


def _whole(A, vectors=True):
    """hermitian_spectrum with the split turned off."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "SPLIT_MIN_ORDER", A.shape[0] + 1)
        return hermitian_spectrum(A, vectors=vectors)


def _kernel_projector(dec):
    K = dec.eigenvectors[:, :dec.kernel_dimension]
    return K @ K.conj().T


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("seed", range(6))
def test_split_solve_matches_the_whole_solve(seed, dtype, eigensolves):
    rng = np.random.default_rng(700 + seed)
    A = _permuted_blocks(rng, dtype)
    n = A.shape[0]
    assert n >= SPLIT_MIN_ORDER
    labels = _components(A)
    assert _same_partition(_blocks_of(A), labels)
    larger = int(np.sum(np.bincount(labels) > 1))

    dec, values = hermitian_spectrum(A), hermitian_spectrum(A, vectors=False)
    # one LAPACK call per block larger than 1 x 1, for vectors then values
    assert eigensolves == [(np.dtype(dtype).name, "vectors")] * larger + [
        (np.dtype(dtype).name, "values")
    ] * larger
    whole = _whole(A)
    bound = 1e-12 * np.linalg.norm(A)
    reference = np.linalg.eigvalsh(A)
    for d in (dec, values):
        assert np.all(np.diff(d.eigenvalues) >= 0.0)
        assert np.max(np.abs(d.eigenvalues - reference)) <= bound
        assert d.kernel_tol == pytest.approx(whole.kernel_tol, rel=1e-12)
        assert d.kernel_dimension == whole.kernel_dimension == 5 + 4
    assert values.eigenvectors is None

    V = dec.eigenvectors
    assert V.dtype == dtype
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-12
    assert np.max(np.abs(A @ V - V * dec.eigenvalues)) <= bound
    assert np.max(np.abs(_kernel_projector(dec) - _kernel_projector(whole))) <= 1e-10


@pytest.mark.parametrize("dense", [False, True])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("n", [SPLIT_MIN_ORDER, 75])
def test_one_block_is_solved_whole_bit_for_bit(n, dtype, dense, eigensolves):
    # a randomly permuted path Laplacian, connected through every index
    # (the complex one through purely imaginary entries), or a dense psd
    # matrix
    rng = np.random.default_rng(n)
    if dense:
        f = rng.standard_normal((n, n))
        if dtype is np.complex128:
            f = f + 1j * rng.standard_normal((n, n))
        P = f.conj().T @ f
    elif dtype is np.complex128:
        P = 2.0 * np.eye(n) + 1j * (np.eye(n, k=1) - np.eye(n, k=-1))
    else:
        P = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    perm = rng.permutation(n)
    A = P[np.ix_(perm, perm)].astype(dtype)
    assert not _blocks_of(A).any()
    dec, values = hermitian_spectrum(A), hermitian_spectrum(A, vectors=False)
    w, V = np.linalg.eigh(A)
    assert dec.eigenvalues.tobytes() == w.tobytes()
    assert dec.eigenvectors.tobytes() == V.tobytes()
    assert values.eigenvalues.tobytes() == np.linalg.eigvalsh(A).tobytes()
    assert [kind for _, kind in eigensolves] == ["vectors", "values"] * 2


def test_below_the_split_order_a_matrix_is_solved_whole(eigensolves):
    A = np.diag(np.arange(1.0, SPLIT_MIN_ORDER))
    dec = hermitian_spectrum(A, vectors=False)
    assert eigensolves == [("float64", "values")]
    assert dec.eigenvalues.tobytes() == np.linalg.eigvalsh(A).tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("larger, smaller, lone", [(33, 30, 0), (35, 21, 7), (32, 32, 0)])
def test_a_block_over_half_the_order_is_solved_whole(larger, smaller, lone, dtype, eigensolves):
    # the blocks of w* w for twisted simplex_boundary(6) are [28, 35] and
    # 7 lone + [21, 35]: one block over half the order keeps the solve
    # whole, bit for bit; two halves are split
    rng = np.random.default_rng(larger + smaller + lone)
    blocks = [np.diag(rng.uniform(0.5, 3.0, lone))] if lone else []
    for size in (larger, smaller):
        f = rng.standard_normal((size, size))
        if dtype is np.complex128:
            f = f + 1j * rng.standard_normal((size, size))
        blocks.append(f.conj().T @ f)
    B = scipy.linalg.block_diag(*blocks).astype(dtype)
    perm = rng.permutation(B.shape[0])
    A = B[np.ix_(perm, perm)]
    n = A.shape[0]
    values = hermitian_spectrum(A, vectors=False)
    if 2 * larger > n:
        assert eigensolves == [(np.dtype(dtype).name, "values")]
        assert values.eigenvalues.tobytes() == np.linalg.eigvalsh(A).tobytes()
    else:
        assert eigensolves == [(np.dtype(dtype).name, "values")] * 2
        assert np.max(np.abs(values.eigenvalues - np.linalg.eigvalsh(A))) <= 1e-12 * np.linalg.norm(A)


def test_twisted_laplacian_runs_one_lapack_call_per_block(eigensolves):
    # after the parity fold a top-degree flux couples only degree 0 to the
    # top degree: the order-255 parity Laplacians of simplex_boundary(8)
    # are one block of 33 (even) or 24 (odd) among 1 x 1 blocks.  The
    # engine passes each as the direct sum of its coarse blocks, 45, 84
    # and 126, which the solver splits again on their zero patterns
    C = coboundary_matrices(simplex_boundary(8))
    flux = Cochain(degree=C.top, coefficients=np.full(C.dims[C.top], 1.5 - 0.5j))
    for (up, lap, _), larger in zip(_blocks(twisted_differential(C, flux)), ([33], [24])):
        assert sorted(len(b) for b in lap.blocks) == [45, 84, 126]
        whole = laid_out(lap)
        labels = _components(whole)
        sizes = np.bincount(labels)
        assert sorted(sizes[sizes > 1].tolist()) == larger
        assert _same_partition(_blocks_of(whole), labels)
        eigensolves.clear()
        dec = hermitian_spectrum(lap, vectors=False)
        assert eigensolves == [(np.dtype(whole.dtype).name, "values")]
        reference = np.linalg.eigvalsh(whole)
        assert np.max(np.abs(dec.eigenvalues - reference)) <= 1e-12 * np.linalg.norm(whole)
        assert dec.kernel_dimension == _whole(whole, vectors=False).kernel_dimension


def _direct_sum(rng, free=7):
    """A BlockDiagonal of random psd blocks on disjoint random index sets,
    in no order, with ``free`` indices in no block: real, complex,
    complex with a zero imaginary part, all-zero and 1 x 1 blocks, and a
    permuted block-diagonal one that the solver splits again."""
    blocks = []
    for kind in ["real", "complex", "real-complex", "zero", "one"] * 2:
        size = 1 if kind == "one" else int(rng.integers(2, 9))
        f = rng.standard_normal((max(size - 1, 1), size))
        if kind == "complex":
            f = f + 1j * rng.standard_normal(f.shape)
        b = f.conj().T @ f
        if kind == "real-complex":
            b = b.astype(np.complex128)
        elif kind == "zero":
            b = np.zeros((size, size))
        blocks.append(b)
    blocks.append(_permuted_blocks(rng, np.float64))
    order = rng.permutation(len(blocks))
    blocks = [blocks[k] for k in order]
    n = sum(len(b) for b in blocks) + free
    perm = rng.permutation(n)
    ends = np.cumsum([len(b) for b in blocks])
    index = tuple(perm[end - len(b):end] for b, end in zip(blocks, ends))
    return BlockDiagonal(tuple(blocks), index, (n, n))


@pytest.mark.parametrize("seed", range(6))
def test_a_direct_sum_solves_as_its_laid_out_matrix(seed):
    rng = np.random.default_rng(1300 + seed)
    A = _direct_sum(rng)
    whole = laid_out(A)
    n = whole.shape[0]
    bound = 1e-12 * np.linalg.norm(whole)
    reference = hermitian_spectrum(whole, vectors=False)
    dec, values = hermitian_spectrum(A), hermitian_spectrum(A, vectors=False)
    for d in (dec, values):
        assert np.all(np.diff(d.eigenvalues) >= 0.0)
        assert np.max(np.abs(d.eigenvalues - np.linalg.eigvalsh(whole))) <= bound
        assert d.kernel_dimension == reference.kernel_dimension
    V = dec.eigenvectors
    assert V.dtype == whole.dtype
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-12
    assert np.max(np.abs(whole @ V - V * dec.eigenvalues)) <= bound


@pytest.mark.parametrize("seed", range(3))
def test_a_direct_sum_is_refused_as_its_laid_out_matrix(seed):
    rng = np.random.default_rng(1400 + seed)
    A = _direct_sum(rng)
    # a 1 x 1 block of 1e4 on an index no block holds sets the scale
    free = np.setdiff1d(np.arange(A.shape[0]), np.concatenate(A.index))[:1]
    A = BlockDiagonal(A.blocks + (np.array([[1e4]]),), A.index + (free,), A.shape)
    k = next(k for k, b in enumerate(A.blocks) if len(b) > 1 and b.any())

    def with_block(b):
        return BlockDiagonal(A.blocks[:k] + (b,) + A.blocks[k + 1:], A.index, A.shape)

    nan, skew, within = (np.array(A.blocks[k]) for _ in range(3))
    nan[0, 1] = np.nan
    skew[0, 1] += 1e-9 * 1e4
    within[0, 1] += 0.5e-10 * 1e4
    for b, error in ((nan, ValidationError), (skew, NotHermitian)):
        for op in (with_block(b), laid_out(with_block(b))):
            with pytest.raises(error):
                hermitian_spectrum(op, vectors=False)
    # the tolerance is the whole operator's: a residual under 1e-10 of the
    # largest entry passes, though the block alone is refused
    with pytest.raises(NotHermitian):
        hermitian_spectrum(within, vectors=False)
    for op in (with_block(within), laid_out(with_block(within))):
        assert hermitian_spectrum(op, vectors=False).eigenvalues.size == A.shape[0]


def test_an_empty_direct_sum_is_the_zero_operator(eigensolves):
    dec = hermitian_spectrum(BlockDiagonal((), (), (5, 5)))
    assert eigensolves == []
    assert dec.eigenvalues.tobytes() == np.zeros(5).tobytes()
    assert dec.eigenvectors.tobytes() == np.eye(5).tobytes()
    assert dec.kernel_dimension == 5


@pytest.mark.parametrize("upper", [True, False])
def test_an_entry_on_one_side_of_the_diagonal_joins_its_indices(upper):
    # within the Hermitian tolerance, so the operator is accepted; its two
    # indices stay in one block either way round
    n = SPLIT_MIN_ORDER + 8
    A = np.diag(np.arange(1.0, n + 1.0))
    i, j = (3, 20) if upper else (20, 3)
    A[i, j] = 1e-12
    labels = _blocks_of(A)
    assert labels[i] == labels[j]
    assert np.bincount(labels).max() == 2
    dec = hermitian_spectrum(A, vectors=False)
    assert np.max(np.abs(dec.eigenvalues - np.linalg.eigvalsh(A))) <= 1e-12 * n


@pytest.mark.parametrize("m", [SPLIT_MIN_ORDER // 2, 40])
def test_two_dense_halves_are_two_blocks(m):
    # two dense blocks of (nearly) equal order, randomly interleaved
    rng = np.random.default_rng(m)
    for extra in (0, 1):
        halves = [np.ones((m, m)), np.ones((m + extra, m + extra))]
        B = scipy.linalg.block_diag(*halves)
        perm = rng.permutation(B.shape[0])
        A = B[np.ix_(perm, perm)]
        labels = _blocks_of(A)
        assert _same_partition(labels, _components(A))
        assert len(set(labels.tolist())) == 2


@pytest.mark.parametrize("seed", range(5))
def test_blocks_match_connected_components(seed):
    # sparse random patterns, one-sided entries included, and a randomly
    # permuted path, where a tree of hooks is deepest
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(SPLIT_MIN_ORDER, 400))
    A = np.where(rng.random((n, n)) < 1.2 / n, 1.0, 0.0)
    labels = _blocks_of(A)
    assert _same_partition(labels, _components(A))
    # each block is labelled by its smallest index
    assert np.array_equal(labels[labels], labels) and np.all(labels <= np.arange(n))
    path = np.eye(n, k=1)
    perm = rng.permutation(n)
    labels = _blocks_of(path[np.ix_(perm, perm)])
    assert not labels.any()


# ---------------------------------------------------------------------------
# the triangular inverse behind every Gram weighting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 5, 32, 33, 75, 130])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_lower_inverse_matches_a_general_inverse(n, dtype):
    # a Gram record forms the inverse of its Cholesky factor once, on
    # first use, in the factor's dtype
    rng = np.random.default_rng(n)
    g = rng.standard_normal((n, n))
    if dtype is np.complex128:
        g = g + 1j * rng.standard_normal((n, n))
    factor = _gram_factor(g @ g.conj().T + n * np.eye(n), n)
    inverse = factor.lower_inverse
    assert inverse is factor.lower_inverse
    assert inverse.dtype == dtype
    scale = np.max(np.abs(inverse))
    assert np.max(np.abs(np.triu(inverse, 1)), initial=0.0) <= 1e-15 * scale
    assert np.max(np.abs(inverse @ factor.lower - np.eye(n))) <= 1e-13
