"""Combinatorial layer: complexes, local systems, cup products, parity
assembly, and flux-twisted differentials."""

import re

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.csgraph

from torsionlab import (
    Cochain,
    GradedCochainComplex,
    LocalSystem,
    TwistedComplex,
    build_simplicial,
    coboundary_matrices,
    cup,
    cup_operator,
    pair_with_fundamental_class,
    signed_incidence,
    twisted_differential,
    validate_local_system,
)
from torsionlab.builders import cycle, minimal_sphere, simplex_boundary
from torsionlab.chain_models import MAX_MODEL_SIZE, _is_connected, _is_frozen, fold
from torsionlab.cli import main
from torsionlab.errors import (
    DuplicateSimplex,
    FluxError,
    FluxHasDegreeOne,
    FluxNotClosed,
    GramNotPositive,
    InconsistentDimension,
    NonFlatLocalSystem,
    NotOriented,
    NotTopDegree,
    ValidationError,
)


# ---------------------------------------------------------------------------
# simplicial building
# ---------------------------------------------------------------------------

def test_face_closure_and_f_vector():
    K = build_simplicial([(0, 1, 2)])
    assert K.f_vector == (3, 3, 1)
    assert K.simplices[1] == ((0, 1), (0, 2), (1, 2))
    assert K.euler_characteristic == 1


def test_vertex_order_ignored_and_normalized():
    K = build_simplicial([(2, 0, 1)])
    assert K.simplices[2] == ((0, 1, 2),)


def test_duplicate_top_simplex_rejected():
    with pytest.raises(DuplicateSimplex):
        build_simplicial([(0, 1), (1, 0)])


def test_mixed_dimension_needs_flag():
    with pytest.raises(InconsistentDimension):
        build_simplicial([(0, 1, 2), (3, 4)])
    K = build_simplicial([(0, 1, 2), (3, 4)], allow_mixed_dimension=True)
    assert K.dim == 2
    assert (3, 4) in K.simplices[1]


def test_orientation_mapping_and_sequence_agree():
    # dropping vertex 1 from (0,1,2) and vertex 2 from (0,2,3) hits the
    # shared edge (0,2) with signs -e1 and +e2, so e1 == e2 is coherent
    tops = [(0, 1, 2), (0, 2, 3)]
    by_map = build_simplicial(tops, {(0, 1, 2): 1, (0, 2, 3): 1})
    by_seq = build_simplicial(tops, [1, 1])
    assert by_map.orientation == by_seq.orientation == (1, 1)


def test_incoherent_orientation_rejected():
    with pytest.raises(NotOriented):
        build_simplicial([(0, 1, 2), (0, 2, 3)], [1, -1])


def test_face_with_three_cofaces_cannot_be_oriented():
    tops = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    with pytest.raises(NotOriented):
        build_simplicial(tops, [1, 1, 1])


def test_simplex_boundary_is_coherently_oriented():
    for n in (2, 3, 4):
        K = simplex_boundary(n)
        assert K.orientation is not None
        assert K.euler_characteristic == (2 if n % 2 == 1 else 0)


# ---------------------------------------------------------------------------
# incidence and coboundaries
# ---------------------------------------------------------------------------

def test_signed_incidence_squares_to_zero_in_integers():
    for K in (simplex_boundary(3), simplex_boundary(4), build_simplicial([(0, 1, 2, 3)])):
        mats = [signed_incidence(K, p) for p in range(K.dim)]
        for a, b in zip(mats[1:], mats):
            assert a.dtype == np.int64
            assert not np.any(a @ b)


def test_edge_incidence_signs():
    K = build_simplicial([(0, 1)])
    d0 = signed_incidence(K, 0)
    # (delta f)(v0, v1) = f(v1) - f(v0)
    assert d0.tolist() == [[-1, 1]]


def test_coboundary_matrices_shapes_and_backref():
    K = simplex_boundary(3)
    C = coboundary_matrices(K)
    assert C.dims == (4, 6, 4)
    assert C.simplicial is K
    assert C.local_rank == 1
    assert C.delta(2).shape == (0, 4)


def test_square_zero_validation_rejects_bad_complex():
    with pytest.raises(ValidationError):
        GradedCochainComplex(
            dims=(1, 1, 1),
            coboundary=(np.array([[1.0]]), np.array([[1.0]])),
        )


def test_gram_must_be_hermitian_positive():
    with pytest.raises(GramNotPositive):
        GradedCochainComplex(
            dims=(2,),
            coboundary=(),
            gram=(np.array([[1.0, 2.0], [2.0, 1.0]]),),  # eigenvalue -1
        )
    with pytest.raises(GramNotPositive):
        GradedCochainComplex(
            dims=(2,),
            coboundary=(),
            gram=(np.array([[1.0, 1.0], [0.0, 1.0]]),),  # not Hermitian
        )


def test_gram_check_is_by_largest_entry_and_names_where():
    # an antisymmetric part of 8e-13 passes a Frobenius-norm test but not
    # the largest-entry test of the one Gram check, which names the
    # degree or parity
    g = np.array([[1.0, 8e-13], [-8e-13, 1.0]])
    with pytest.raises(GramNotPositive, match="Gram at degree 0 is not Hermitian"):
        GradedCochainComplex(dims=(2,), coboundary=(), gram=(g,))
    with pytest.raises(GramNotPositive, match="Gram at even parity is not Hermitian"):
        TwistedComplex(2, 1, np.zeros((1, 2)), np.zeros((2, 1)), g, np.eye(1))
    with pytest.raises(GramNotPositive, match=r"Gram at odd parity has shape \(1, 1\)"):
        TwistedComplex(1, 2, np.zeros((2, 1)), np.zeros((1, 2)), np.eye(1), np.eye(1))


def test_indefinite_gram_is_refused_naming_the_degree():
    g = np.diag([1.0, -1.0]).astype(np.complex128)
    with pytest.raises(GramNotPositive, match="Gram at degree 1 is not positive definite"):
        GradedCochainComplex(dims=(1, 2), coboundary=(np.ones((2, 1)),), gram=(np.eye(1), g))


def test_exactly_real_data_is_stored_as_float64():
    C = coboundary_matrices(simplex_boundary(4))
    assert all(d.dtype == np.float64 for d in C.coboundary)
    assert all(not d.flags.writeable for d in C.coboundary)
    zero_imag = GradedCochainComplex(dims=(1, 1), coboundary=(np.array([[2.0 + 0j]]),))
    assert zero_imag.coboundary[0].dtype == np.float64
    complex_entry = GradedCochainComplex(dims=(1, 1), coboundary=(np.array([[2.0 + 1j]]),))
    assert complex_entry.coboundary[0].dtype == np.complex128
    assert Cochain(degree=0, coefficients=[1, 2]).coefficients.dtype == np.float64
    T = twisted_differential(
        coboundary_matrices(simplex_boundary(4)), Cochain(degree=3, coefficients=2 * np.ones(5))
    )
    assert {T.d_even.dtype, T.d_odd.dtype} == {np.dtype(np.float64)}
    # a Gram-less complex twists to identity parity Grams, stored as None
    assert T.gram_even is None and T.gram_odd is None
    T = twisted_differential(
        coboundary_matrices(simplex_boundary(4)), Cochain(degree=3, coefficients=1j * np.ones(5))
    )
    # the flux maps degree 0 to degree 3, so only d_even carries it
    assert (T.d_even.dtype, T.d_odd.dtype) == (np.complex128, np.float64)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_are_refused(value):
    bad = np.array([[value]])
    with pytest.raises(ValidationError, match="coboundary 0 has a non-finite entry"):
        GradedCochainComplex(dims=(1, 1), coboundary=(bad,))
    with pytest.raises(ValidationError, match="Gram at degree 1 has a non-finite entry"):
        GradedCochainComplex(dims=(1, 1), coboundary=(np.ones((1, 1)),),
                             gram=(np.eye(1), bad))
    with pytest.raises(ValidationError, match="degree-0 cochain has a non-finite entry"):
        Cochain(degree=0, coefficients=[1.0, value])
    with pytest.raises(ValidationError, match=r"holonomy on edge \(0, 1\) has a non-finite"):
        LocalSystem(rank=1, holonomy={(0, 1): bad})
    ok = np.ones((1, 1))
    with pytest.raises(ValidationError, match=r"d_even \(even parity\) has a non-finite"):
        TwistedComplex(1, 1, bad, np.zeros((1, 1)), ok, ok)
    with pytest.raises(ValidationError, match="Gram at odd parity has a non-finite"):
        TwistedComplex(1, 1, ok, np.zeros((1, 1)), ok, bad)


@pytest.mark.parametrize("value", [1e160, 1e200, 1e-170, -1e151, 1e-151j])
def test_entries_whose_square_leaves_float64_are_refused(value):
    bad = np.array([[value]])
    with pytest.raises(ValidationError, match=r"coboundary 0 has an entry of modulus .* outside"):
        GradedCochainComplex(dims=(1, 1), coboundary=(bad,))
    with pytest.raises(ValidationError, match=r"Gram at degree 0 has an entry of modulus"):
        GradedCochainComplex(dims=(1, 1), coboundary=(np.ones((1, 1)),),
                             gram=(np.abs(bad), np.eye(1)))
    ok = np.ones((1, 1))
    with pytest.raises(ValidationError, match=r"d_odd \(odd parity\) has an entry of modulus"):
        TwistedComplex(1, 1, np.zeros((1, 1)), bad, ok, ok)
    with pytest.raises(ValidationError, match=r"Gram at even parity has an entry of modulus"):
        TwistedComplex(1, 1, ok, np.zeros((1, 1)), np.abs(bad), ok)


def test_entries_at_the_range_ends_and_exact_zeros_are_accepted():
    for value in (1e150, -1e150, 1e-150, 1e-150j):
        C = GradedCochainComplex(dims=(1, 1, 1), coboundary=(np.array([[value]]), np.zeros((1, 1))))
        assert C.coboundary[0][0, 0] == value


def _frozen(value, kind):
    # complex128 only when the imaginary part is nonzero: a complex array
    # with real entries is stored as float64, which needs a copy anyway
    a = np.array([[value if kind == "real" else complex(0.0, value)]])
    a.setflags(write=False)
    assert _is_frozen(a) and a.dtype == (np.float64 if kind == "real" else np.complex128)
    return a


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize(
    "value, message",
    [(float("nan"), "non-finite entry"), (float("inf"), "non-finite entry"),
     (1e200, "entry of modulus 1.000e+200"), (1e-200, "entry of modulus 1.000e-200")],
)
def test_frozen_inputs_kept_uncopied_are_still_refused(value, message, kind):
    bad, ok = _frozen(value, kind), np.ones((1, 1))
    message = re.escape(message)
    with pytest.raises(ValidationError, match=f"coboundary 0 has an? {message}"):
        GradedCochainComplex(dims=(1, 1), coboundary=(bad,))
    with pytest.raises(ValidationError, match=f"Gram at degree 1 has an? {message}"):
        GradedCochainComplex(dims=(1, 1), coboundary=(ok,), gram=(np.eye(1), bad))
    with pytest.raises(ValidationError, match=rf"d_even \(even parity\) has an? {message}"):
        TwistedComplex(1, 1, bad, np.zeros((1, 1)), ok, ok)
    with pytest.raises(ValidationError, match=f"Gram at odd parity has an? {message}"):
        TwistedComplex(1, 1, ok, np.zeros((1, 1)), ok, bad)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_only_frozen_inputs_are_kept_uncopied(kind):
    frozen = _frozen(2.0, kind)
    C = GradedCochainComplex(dims=(1, 1), coboundary=(frozen,))
    T = TwistedComplex(1, 1, frozen, np.zeros((1, 1)), None, None)
    assert C.coboundary[0] is frozen and T.d_even is frozen

    owner = np.array(frozen)
    view = owner.view()
    view.setflags(write=False)
    assert not _is_frozen(view)
    for source in (owner, view):
        C = GradedCochainComplex(dims=(1, 1), coboundary=(source,))
        T = TwistedComplex(1, 1, source, np.zeros((1, 1)), None, None)
        owner[0, 0] = 7.0
        assert C.coboundary[0][0, 0] == frozen[0, 0]
        assert T.d_even[0, 0] == frozen[0, 0]
        owner[0, 0] = frozen[0, 0]


def test_parity_gram_records_are_taken_with_their_factor(gram_checks):
    C = GradedCochainComplex(
        dims=(1, 1, 1), coboundary=(np.zeros((1, 1)), np.zeros((1, 1))),
        gram=(np.eye(1), 2.0 * np.eye(1), 3.0 * np.eye(1)),
    )
    gram_checks.clear()
    T = twisted_differential(C)
    even, odd = C._parity[1]
    assert T._gram_factors == (even, odd) and gram_checks == []
    assert np.array_equal(T.gram_even, np.diag([1.0, 3.0]))
    assert np.array_equal(even.lower, np.diag([1.0, np.sqrt(3.0)]))
    with pytest.raises(GramNotPositive, match=r"Gram at odd parity has shape \(2, 2\)"):
        TwistedComplex(2, 1, np.zeros((1, 2)), np.zeros((2, 1)), even, even)


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------

def _triangle_system(u):
    # holonomy u on edge (0,1), identities elsewhere; flat iff the triangle
    # composition closes, which identity edges reduce to u == id unless we
    # compensate on (0,2)
    m = np.asarray(u, dtype=np.complex128)
    rank = m.shape[0]
    eye = np.eye(rank, dtype=np.complex128)
    return LocalSystem(
        rank=rank,
        holonomy={(0, 1): m, (1, 2): eye, (0, 2): m},
    )


def test_flat_unitary_system_accepted():
    K = build_simplicial([(0, 1, 2)])
    theta = 0.7
    u = np.array([[np.exp(1j * theta)]])
    validate_local_system(K, _triangle_system(u))


def test_nonflat_system_rejected():
    K = build_simplicial([(0, 1, 2)])
    ls = LocalSystem(
        rank=1,
        holonomy={
            (0, 1): np.array([[np.exp(0.3j)]]),
            (1, 2): np.array([[1.0 + 0j]]),
            (0, 2): np.array([[1.0 + 0j]]),
        },
    )
    with pytest.raises(NonFlatLocalSystem):
        validate_local_system(K, ls)


def test_nonunitary_holonomy_rejected():
    K = build_simplicial([(0, 1)])
    ls = LocalSystem(rank=1, holonomy={(0, 1): np.array([[2.0 + 0j]])})
    with pytest.raises(NonFlatLocalSystem):
        validate_local_system(K, ls)


def test_twisted_coboundary_squares_to_zero():
    K = simplex_boundary(3)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, _ = np.linalg.qr(a)
    # one nontrivial generator pushed around a triangle, compensated so
    # every triangle composes to the identity
    holonomy = {}
    for (x, y) in K.simplices[1]:
        holonomy[(x, y)] = np.eye(2, dtype=np.complex128)
    holonomy[(0, 1)] = q
    holonomy[(0, 2)] = q
    holonomy[(0, 3)] = q
    ls = LocalSystem(rank=2, holonomy=holonomy)
    validate_local_system(K, ls)
    C = coboundary_matrices(K, ls)
    assert C.dims == (8, 12, 8)
    assert C.local_rank == 2
    for p in range(C.top - 1):
        assert np.linalg.norm(C.delta(p + 1) @ C.delta(p)) < 1e-12


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------

def test_cup_unit_law():
    K = simplex_boundary(3)
    ones = Cochain(degree=0, coefficients=np.ones(K.n(0), dtype=np.complex128))
    rng = np.random.default_rng(5)
    b = Cochain(degree=1, coefficients=rng.standard_normal(K.n(1)).astype(np.complex128))
    left = cup(ones, b, K)
    assert np.allclose(left.coefficients, b.coefficients)


def test_cup_associative():
    K = simplex_boundary(4)
    rng = np.random.default_rng(3)

    def rand(p):
        return Cochain(degree=p, coefficients=rng.standard_normal(K.n(p)).astype(np.complex128))

    a, b, c = rand(1), rand(1), rand(1)
    lhs = cup(cup(a, b, K), c, K)
    rhs = cup(a, cup(b, c, K), K)
    assert np.allclose(lhs.coefficients, rhs.coefficients)


def test_cup_leibniz_rule():
    # delta(a cup b) = delta(a) cup b + (-1)^p a cup delta(b)
    K = simplex_boundary(4)
    C = coboundary_matrices(K)
    rng = np.random.default_rng(9)
    for p, q in [(0, 1), (1, 1), (0, 2)]:
        a = Cochain(degree=p, coefficients=rng.standard_normal(K.n(p)).astype(np.complex128))
        b = Cochain(degree=q, coefficients=rng.standard_normal(K.n(q)).astype(np.complex128))
        ab = cup(a, b, K)
        lhs = C.delta(p + q) @ ab.coefficients
        da = Cochain(degree=p + 1, coefficients=C.delta(p) @ a.coefficients)
        db = Cochain(degree=q + 1, coefficients=C.delta(q) @ b.coefficients)
        rhs = cup(da, b, K).coefficients + (-1) ** p * cup(a, db, K).coefficients
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_cup_overflow_returns_zero_cochain():
    K = build_simplicial([(0, 1, 2)])
    a = Cochain(degree=2, coefficients=np.ones(1, dtype=np.complex128))
    out = cup(a, a, K)
    assert out.degree == 4
    assert out.coefficients.size == 0


def test_cup_operator_matches_cup():
    K = simplex_boundary(4)
    rng = np.random.default_rng(7)
    h = Cochain(degree=2, coefficients=rng.standard_normal(K.n(2)).astype(np.complex128))
    b = Cochain(degree=1, coefficients=rng.standard_normal(K.n(1)).astype(np.complex128))
    direct = cup(h, b, K).coefficients
    via_op = cup_operator(K, h, 1) @ b.coefficients
    assert np.allclose(direct, via_op)


# ---------------------------------------------------------------------------
# fundamental class pairing
# ---------------------------------------------------------------------------

def test_pairing_on_oriented_sphere():
    K = simplex_boundary(4)
    ones = Cochain(degree=3, coefficients=np.ones(K.n(3), dtype=np.complex128))
    assert pair_with_fundamental_class(K, ones) == 1.0


def test_pairing_kills_coboundaries():
    K = simplex_boundary(4)
    C = coboundary_matrices(K)
    rng = np.random.default_rng(13)
    a = rng.standard_normal(K.n(2))
    db = Cochain(degree=3, coefficients=C.delta(2) @ a.astype(np.complex128))
    assert abs(pair_with_fundamental_class(K, db)) < 1e-12


def test_pairing_requires_orientation_and_top_degree():
    K = build_simplicial([(0, 1, 2)])  # no orientation given
    top = Cochain(degree=2, coefficients=np.ones(1, dtype=np.complex128))
    with pytest.raises(NotOriented):
        pair_with_fundamental_class(K, top)
    K2 = simplex_boundary(3)
    low = Cochain(degree=1, coefficients=np.ones(K2.n(1), dtype=np.complex128))
    with pytest.raises(NotTopDegree):
        pair_with_fundamental_class(K2, low)


def test_pairing_refuses_a_disconnected_complex():
    K = build_simplicial([(0, 1, 2), (3, 4, 5)], [1, 1])
    top = Cochain(degree=2, coefficients=np.ones(2, dtype=np.complex128))
    with pytest.raises(NotOriented, match="connected complex"):
        pair_with_fundamental_class(K, top)


@pytest.mark.parametrize("seed", range(8))
def test_connectivity_agrees_with_scipy_components(seed):
    # random graphs, lone vertices included, against scipy's components,
    # an oracle that shares no code with spectral._labels
    rng = np.random.default_rng(seed)
    V = int(rng.integers(1, 40))
    pairs = rng.integers(0, V, size=(int(rng.integers(0, 3 * V)), 2))
    edges = sorted({(int(a), int(b)) for a, b in np.sort(pairs, axis=1) if a != b})
    lone = [(v,) for v in range(V) if not any(v in e for e in edges)]
    K = build_simplicial(edges + lone, allow_mixed_dimension=True)
    graph = scipy.sparse.coo_matrix(
        (np.ones(len(edges)), tuple(np.array(edges, dtype=int).reshape(-1, 2).T)), shape=(V, V)
    )
    count, _ = scipy.sparse.csgraph.connected_components(graph, directed=False)
    assert _is_connected(K) == (count == 1)


# ---------------------------------------------------------------------------
# parity assembly
# ---------------------------------------------------------------------------

def test_fold_splits_degrees_by_parity():
    # degree q carries the 1x1 block q, so each diagonal lists its degrees
    from_even, from_odd = fold((1,) * 5, [np.full((1, 1), float(q)) for q in range(5)], 0)
    assert tuple(np.diag(from_even)) == (0, 2, 4)
    assert tuple(np.diag(from_odd)) == (1, 3)


def test_fold_places_offsets():
    dims = (1, 2, 1, 1)
    ops = [np.full((1, 1), 5.0 + 0j)]  # degree 0 -> degree 2
    out, _ = fold(dims, ops, 2)
    # even degrees: 0 (dim 1) then 2 (dim 1); block lands at rows of degree 2
    assert out.shape == (2, 2)
    assert out[1, 0] == 5.0
    assert np.count_nonzero(out) == 1


def test_fold_gram_direct_sum():
    C = coboundary_matrices(simplex_boundary(3))
    ge, go = fold(C.dims, [C.gram_at(q) for q in range(len(C.dims))], 0)
    assert ge.shape == (8, 8)
    assert go.shape == (6, 6)
    assert np.allclose(ge, np.eye(8))


@pytest.mark.parametrize("c", [2.0, 0.5 + 0.25j, -3j])
def test_fold_onto_a_base_has_the_bits_of_the_sum(c):
    # the flux blocks of a twisted differential never meet the folded
    # coboundary's, so adding them to a copy of it in the final dtype
    # gives the bits of the mixed-dtype sum d + fold(...)
    K = simplex_boundary(6)
    C = coboundary_matrices(K)
    h = Cochain(degree=5, coefficients=np.full(C.dims[5], c))
    ops = [cup_operator(K, h, 0)]
    base, _ = C._parity
    for got, d, flux in zip(fold(C.dims, ops, 5, base=base), base, fold(C.dims, ops, 5)):
        want = d + flux
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    T = twisted_differential(C, h)
    assert T.d_even.tobytes() == (base[0] + fold(C.dims, ops, 5)[0]).tobytes()


def test_fold_refuses_a_misshaped_block():
    with pytest.raises(ValidationError, match=r"block 1->2 has shape \(1, 1\), expected \(1, 2\)"):
        fold((1, 2, 1), [np.zeros((2, 1)), np.zeros((1, 1))], 1)


# ---------------------------------------------------------------------------
# twisted differentials
# ---------------------------------------------------------------------------

def test_zero_flux_reduces_to_folded_coboundary():
    C = coboundary_matrices(simplex_boundary(3))
    T = twisted_differential(C, None)
    assert T.even_dim == 8 and T.odd_dim == 6
    assert np.allclose(T.d_even[:, :4], C.delta(0))


@pytest.mark.parametrize("value", [1e-155, 1e-165, 1e-170, 1e-155j, 1e-165j, 1e-170j, 0])
def test_tiny_flux_is_refused_not_read_as_zero(value, capsys):
    # below about 1e-162 the Frobenius norm of the flux underflows to 0,
    # which once dropped the flux and answered for the zero flux
    C = coboundary_matrices(simplex_boundary(4))
    h = Cochain(degree=3, coefficients=value * np.ones(C.dims[3], dtype=np.complex128))
    code = main(["twisted", "simplex_boundary(4)", "--flux", f"top({value!r})"])
    if value:
        with pytest.raises(ValidationError, match=r"degree-3 flux has an entry of modulus"):
            twisted_differential(C, h)
        assert code == 2
        assert "outside [1e-150, 1e+150]" in capsys.readouterr().err
    else:
        T, zero = twisted_differential(C, h), twisted_differential(C)
        assert np.array_equal(T.d_even, zero.d_even) and np.array_equal(T.d_odd, zero.d_odd)
        assert code == 0


def test_degree_one_flux_rejected_even_when_zero():
    C = coboundary_matrices(simplex_boundary(3))
    h = Cochain(degree=1, coefficients=np.zeros(C.dims[1], dtype=np.complex128))
    with pytest.raises(FluxHasDegreeOne):
        twisted_differential(C, h)


def test_even_degree_flux_rejected():
    C = coboundary_matrices(simplex_boundary(4))
    h = Cochain(degree=2, coefficients=np.ones(C.dims[2], dtype=np.complex128))
    with pytest.raises(FluxError):
        twisted_differential(C, h)


def test_unclosed_flux_rejected():
    # on the solid tetrahedron a generic 1-cochain... degree must be >= 3,
    # so use a 4-complex where degree-3 cochains are not all closed
    K = build_simplicial([(0, 1, 2, 3, 4), (1, 2, 3, 4, 5)])
    C = coboundary_matrices(K)
    rng = np.random.default_rng(1)
    h = Cochain(degree=3, coefficients=rng.standard_normal(K.n(3)).astype(np.complex128))
    resid = np.linalg.norm(C.delta(3) @ h.coefficients)
    assert resid > 1e-6  # generic cochain really is not closed
    with pytest.raises(FluxNotClosed):
        twisted_differential(C, h)


def test_flux_above_top_degree_rejected():
    C = minimal_sphere(2)
    h = Cochain(degree=3, coefficients=np.ones(1, dtype=np.complex128))
    with pytest.raises(FluxError):
        twisted_differential(C, h)


def test_minimal_model_flux_unit_action():
    # one generator in degree 3 acting on the unit of a minimal S^3 model
    C = minimal_sphere(3)
    t = 1.75
    h = Cochain(degree=3, coefficients=np.array([t], dtype=np.complex128))
    T = twisted_differential(C, h)
    assert T.even_dim == 1 and T.odd_dim == 1
    assert T.d_even[0, 0] == t
    assert not np.any(T.d_odd)


def test_minimal_model_fat_degree_zero_rejected():
    C = GradedCochainComplex(
        dims=(2, 0, 0, 1),
        coboundary=(
            np.zeros((0, 2)), np.zeros((0, 0)), np.zeros((1, 0)),
        ),
    )
    h = Cochain(degree=3, coefficients=np.ones(1, dtype=np.complex128))
    with pytest.raises(FluxError):
        twisted_differential(C, h)


def test_flux_components_of_same_degree_merge():
    C = minimal_sphere(3)
    h1 = Cochain(degree=3, coefficients=np.array([1.0 + 0j]))
    h2 = Cochain(degree=3, coefficients=np.array([0.5 + 0j]))
    T = twisted_differential(C, [h1, h2])
    assert T.d_even[0, 0] == 1.5


@pytest.mark.parametrize("short", [4, 1])
def test_flux_components_of_same_degree_and_different_lengths_rejected(short):
    # 5 and 1 would broadcast into a flux of 2 on every simplex
    K = simplex_boundary(4)
    h1 = Cochain(degree=3, coefficients=np.ones(K.n(3)))
    h2 = Cochain(degree=3, coefficients=np.ones(short))
    with pytest.raises(FluxError, match=f"degree-3 flux components have 5 and {short} coefficients"):
        twisted_differential(coboundary_matrices(K), [h1, h2])


def test_twisted_square_zero_on_simplicial_flux():
    K = simplex_boundary(4)
    h = Cochain(degree=3, coefficients=np.ones(K.n(3), dtype=np.complex128))
    T = twisted_differential(coboundary_matrices(K), h)
    assert np.linalg.norm(T.d_odd @ T.d_even) < 1e-12
    assert np.linalg.norm(T.d_even @ T.d_odd) < 1e-12


def test_models_are_size_guarded_at_the_limit():
    assert MAX_MODEL_SIZE == 8192
    # a path of k edges has 2k + 1 cells
    assert sum(build_simplicial([[i, i + 1] for i in range(4095)]).f_vector) == 8191
    with pytest.raises(ValidationError, match="over 8192 cells"):
        build_simplicial([[i, i + 1] for i in range(4096)])
    # a k-vertex simplex closes to 2^k - 1 cells, refused before its faces are listed
    assert sum(build_simplicial([range(13)]).f_vector) == 8191
    with pytest.raises(ValidationError, match="over 8192 cells"):
        build_simplicial([range(40)])
    with pytest.raises(ValidationError, match="over 8192 cells"):
        build_simplicial([[v] for v in range(8193)])

    GradedCochainComplex(dims=(8192,), coboundary=())
    with pytest.raises(ValidationError, match="over 8192 cells"):
        GradedCochainComplex(dims=(8192, 1), coboundary=(np.zeros((1, 8192)),))
    with pytest.raises(ValidationError, match="over 8192 degrees"):
        GradedCochainComplex(dims=(0,) * 8193, coboundary=(np.zeros((0, 0)),) * 8192)

    # rank x cells: the 7-cell triangle with a rank-1171 local system
    triangle = build_simplicial([[0, 1, 2]])
    with pytest.raises(ValidationError, match="local system is too large"):
        coboundary_matrices(triangle, LocalSystem(rank=1171))
    assert coboundary_matrices(triangle, LocalSystem(rank=2)).dims == (6, 6, 2)
