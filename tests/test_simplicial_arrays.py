"""The array assembly of simplicial models against a per-simplex
reference (``simplicial_reference``): closure, orientation, incidence,
cup and local-system coboundaries entry for entry, every refusal with
its class and first offender, and the integer rule for ids and signs."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simplicial_reference as ref
from torsionlab import (
    Cochain,
    LocalSystem,
    build_simplicial,
    coboundary_matrices,
    cup_operator,
    reidemeister_torsion,
    signed_incidence,
)
from torsionlab.chain_models import _integer
from torsionlab.errors import (
    DuplicateSimplex,
    InconsistentDimension,
    NotOriented,
    ParseError,
    TorsionLabError,
    ValidationError,
)
from torsionlab.serialize import _integer as _file_integer

# sparse ids, ids at and past 2^63, and one far past int64
_IDS = st.one_of(st.integers(0, 40), st.integers(2**63 - 2, 2**63 + 2), st.just(2**70))


@st.composite
def _models(draw):
    """(tops, orientation, allow_mixed_dimension): a simplex boundary or a
    cycle with its coherent orientation, a book of pages on one face, or
    random tops with random signs; vertices shuffled within each top,
    tops shuffled, sometimes one sign flipped."""
    size = draw(st.integers(3, 8))
    pool = draw(st.lists(_IDS, min_size=size, max_size=size, unique=True))
    kind = draw(st.sampled_from(["boundary", "cycle", "book", "random", "random"]))
    mixed = False
    if kind == "boundary":
        verts = sorted(pool[:draw(st.integers(3, min(size, 7)))])
        tops = [verts[:i] + verts[i + 1:] for i in range(len(verts))]
        signs = [(-1) ** i for i in range(len(verts))]
    elif kind == "cycle":
        ring = pool[:draw(st.integers(3, size))]
        tops = [(a, b) for a, b in zip(ring, ring[1:] + ring[:1])]
        signs = [1 if a < b else -1 for a, b in tops]
    elif kind == "book":
        spine = draw(st.integers(1, size - 2))
        tops = [tuple(pool[:spine]) + (v,) for v in pool[spine:]]
        signs = [1] * len(tops)
    else:
        mixed = draw(st.booleans())
        sizes = st.integers(1, min(4, size))
        k = draw(sizes)
        tops = draw(st.lists(
            (sizes if mixed else st.just(k)).flatmap(
                lambda n: st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True)),
            min_size=1, max_size=8, unique_by=frozenset,
        ))
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=len(tops), max_size=len(tops)))
    order = draw(st.permutations(range(len(tops))))
    tops = [tuple(draw(st.permutations(tops[i]))) for i in order]
    signs = [signs[i] for i in order]
    if draw(st.booleans()):
        signs[draw(st.integers(0, len(signs) - 1))] *= -1
    form = draw(st.sampled_from(["none", "sequence", "mapping"]))
    if form == "sequence":
        return tops, signs, mixed
    if form == "mapping":
        return tops, dict(zip(tops, signs)), mixed
    return tops, None, mixed


def _outcome(build):
    try:
        return build()
    except TorsionLabError as exc:
        return type(exc), str(exc)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.astype(complex).tobytes() == b.astype(complex).tobytes()


def _local_system(K, rank: int, rng) -> LocalSystem:
    """A gauge-flat system (U(a, b) = g_b g_a^-1) on some of K's edges,
    sometimes with one holonomy off the gauge (flat only without
    triangles), plus one pair that is no edge."""
    phases = rng.uniform(0, 2 * math.pi, len(K.simplices[0]))
    if rank == 1:
        g = [np.array([[np.exp(1j * t)]]) for t in phases]
    else:  # rotations, real
        g = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]) for t in phases]
    rank_of = {v: r for r, (v,) in enumerate(K.simplices[0])}
    holonomy = {
        (a, b): g[rank_of[b]] @ g[rank_of[a]].conj().T
        for a, b in (K.simplices[1] if K.dim >= 1 else ())
        if rng.random() < 0.7
    }
    if holonomy and rng.random() < 0.3:
        holonomy[next(iter(holonomy))] = -np.eye(rank)
    holonomy[(0, 2**70 + 1)] = np.eye(rank)
    return LocalSystem(rank=rank, holonomy=holonomy)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_models(), st.integers(0, 2**32 - 1))
def test_array_assembly_matches_the_per_simplex_reference(model, seed):
    tops, orientation, mixed = model
    got = _outcome(lambda: build_simplicial(tops, orientation, allow_mixed_dimension=mixed))
    want = _outcome(lambda: ref.build(tops, orientation, mixed))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    simplices, signs = want
    K = got
    assert K.simplices == simplices
    assert K.orientation == signs
    assert K.f_vector == tuple(map(len, simplices))
    for p, level in enumerate(simplices):
        assert [K.index(p, s) for s in level] == list(range(len(level)))
    for p in range(-1, K.dim + 1):
        d = signed_incidence(K, p)
        assert d.dtype == np.int64 and np.array_equal(d, ref.incidence(simplices, p))
    C = coboundary_matrices(K)
    for p, d in enumerate(C.coboundary):
        assert d.dtype == np.float64 and _same_bits(d, ref.incidence(simplices, p).astype(float))

    rng = np.random.default_rng(seed)
    for p in range(K.dim + 1):
        hv = rng.standard_normal(K.n(p)) * (1j if p % 2 else 1)
        hv[::3] = -0.0
        h = Cochain(p, hv)
        for q in range(K.dim + 1):
            assert _same_bits(cup_operator(K, h, q), ref.cup(simplices, h.coefficients, p, q))

    for rank in (1, 2):
        L = _local_system(K, rank, rng)
        got = _outcome(lambda: coboundary_matrices(K, L).coboundary)
        want = _outcome(lambda: ref.local_coboundaries(simplices, L.holonomy, rank))
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            assert len(got) == len(want)
            assert all(_same_bits(a, b) for a, b in zip(got, want))


# every build_simplicial refusal, worded as before the array assembly:
# (tops, orientation, allow_mixed_dimension, class, message)
_REFUSALS = {
    "empty simplex": (
        [(0, 1), (), (1, 2, 2)], None, False, ValidationError, "empty simplex"),
    "negative id": (
        [(0, 1), (2, -1, -3), (4, 4)], None, False,
        ValidationError, "negative vertex id in (2, -1, -3)"),
    "repeated vertex": (
        [(0, 1), (3, 2, 3), (1, -2)], None, False,
        ValidationError, "repeated vertex in simplex (3, 2, 3)"),
    "no top": ([], None, False, ValidationError, "need at least one top simplex"),
    "duplicate top": (
        [(0, 1), (1, 2), (2, 1), (1, 0)], None, False,
        DuplicateSimplex, "top simplex (1, 2) supplied twice"),
    "mixed dimension": (
        [(0, 1, 2), (3, 4), (5,)], None, False, InconsistentDimension,
        "top simplices of dimensions [0, 1, 2]; pass allow_mixed_dimension=True to accept"),
    "orientation on mixed dimension": (
        [(0, 1, 2), (3, 4)], [1, 1], True,
        NotOriented, "orientation requires uniform top dimension"),
    "orientation coverage, mapping": (
        [(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, 2): 1, (0, 3): -1}, False,
        NotOriented, "orientation must cover exactly the top simplices"),
    "orientation coverage, sequence": (
        [(0, 1), (1, 2), (0, 2)], [1, 1], False,
        NotOriented, "orientation must give one sign per top simplex"),
    "orientation key": (
        [(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, -2): 1, (0, 2): -1}, False,
        ValidationError, "negative vertex id in (1, -2)"),
    "orientation sign": (
        [(0, 1), (1, 2), (0, 2)], [1, 2, -1], False,
        NotOriented, "orientation signs must lie in {+1, -1}"),
    "incoherent orientation": (
        [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)], [1, -1, 1, 1], False,
        NotOriented, "incoherent orientation across face (1, 2)"),
    "incoherent points": (
        [(0,), (1,)], [1, 1], False, NotOriented, "incoherent orientation across face ()"),
    "three cofaces": (
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 1, 4)], [1, -1, 1, 1], False,
        NotOriented, "face (0, 1) shared by 3 top simplices"),
    "size guard, one top": (
        [tuple(range(14))], None, False,
        ValidationError, "simplicial complex is too large to build: over 8192 cells"),
    "size guard, two 12-simplices": (
        [tuple(range(13)), tuple(range(1, 14))], None, False,
        ValidationError, "simplicial complex is too large to build: over 8192 cells"),
    "size guard, tops": (
        [(i, i + 1) for i in range(9000)], None, False,
        ValidationError, "simplicial complex is too large to build: over 8192 cells"),
    "size guard, closure": (
        [(i, i + 1) for i in range(4100)], None, False,
        ValidationError, "simplicial complex is too large to build: over 8192 cells"),
}


@pytest.mark.parametrize("case", list(_REFUSALS), ids=list(_REFUSALS))
def test_refusal_keeps_its_class_and_first_offender(case):
    tops, orientation, mixed, error, message = _REFUSALS[case]
    with pytest.raises(error) as info:
        build_simplicial(tops, orientation, allow_mixed_dimension=mixed)
    assert type(info.value) is error and str(info.value) == message
    assert _outcome(lambda: ref.build(tops, orientation, mixed)) == (error, message)


@pytest.mark.parametrize("tops", [[tuple(range(14))], [tuple(range(13)), tuple(range(1, 14))]],
                         ids=["14-vertex top", "two 12-simplices"])
def test_size_guard_refuses_before_enumerating_faces(tops):
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="too large"):
            build_simplicial(tops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the faces of one 12-simplex alone are 8191 rows of up to 13 ranks
    assert peak < 64 * 1024


def test_orientation_mapping_naming_a_top_twice_is_refused():
    with pytest.raises(NotOriented, match=r"two signs for top simplex \(0, 1\)"):
        build_simplicial([(0, 1), (1, 2), (0, 2)], {(1, 0): -1, (0, 1): 1, (1, 2): 1, (0, 2): -1})


@pytest.mark.parametrize(
    "tops, orientation, error, message",
    [
        ([(0, 1.7), (1, 2), (0, 2)], None, ValidationError, "vertex id must be an integer, got 1.7"),
        ([(0, True), (1, 2)], None, ValidationError, "vertex id must be an integer, got True"),
        ([(0, "1"), (1, 2)], None, ValidationError, "vertex id must be an integer, got '1'"),
        ([(0, 1), (1, 2), (0, 2)], [1, 1.9, -1], NotOriented,
         "orientation sign must be an integer, got 1.9"),
        ([(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, 2): True, (0, 2): -1}, NotOriented,
         "orientation sign must be an integer, got True"),
        ([(0, 1), (1, 2), (0, 2)], {(0, 1): 1, (1, 2.5): 1, (0, 2): -1}, ValidationError,
         "vertex id must be an integer, got 2.5"),
        # the first offending top is refused, whichever rule it breaks
        ([(0, -1), (0, 1.5)], None, ValidationError, "negative vertex id in (0, -1)"),
        ([(0, 1.5), (0, -1)], None, ValidationError, "vertex id must be an integer, got 1.5"),
    ],
)
def test_non_integral_ids_and_signs_are_refused(tops, orientation, error, message):
    with pytest.raises(error) as info:
        build_simplicial(tops, orientation)
    assert str(info.value) == message


def test_holonomy_edges_follow_the_integer_rule():
    # a fractional end would otherwise be truncated onto a real edge
    with pytest.raises(ValidationError, match="holonomy edge vertex must be an integer, got 0.5"):
        LocalSystem(rank=1, holonomy={(0.5, 1): np.eye(1)})
    L = LocalSystem(rank=1, holonomy={(np.int64(0), 1.0): -np.eye(1)})
    assert list(L.holonomy) == [(0, 1)]
    d0 = coboundary_matrices(build_simplicial([(0, 1)]), L).coboundary[0]
    assert d0.tolist() == [[-1.0, -1.0]]


def test_integral_ids_of_any_size_are_accepted():
    K = build_simplicial(
        [(np.int64(0), 2.0), (2**63, np.uint64(2**63 + 1)), (2**70, 2.0)],
        allow_mixed_dimension=True,
    )
    assert K.simplices[0] == ((0,), (2,), (2**63,), (2**63 + 1,), (2**70,))
    assert all(type(v) is int for (v,) in K.simplices[0])
    assert K.index(1, (2, 2**70)) == 1
    with pytest.raises(KeyError):
        K.index(1, (0, 2**63))
    # a triangulated circle on {0, 5, 2^70}: tau = 3
    C = coboundary_matrices(build_simplicial([(0, 5), (5, 2**70), (0, 2**70)], [1, 1, -1]))
    assert math.isclose(reidemeister_torsion(C).log_scalar, math.log(3), rel_tol=1e-12)


@pytest.mark.parametrize(
    "value", [3, -2, 2**70, np.int64(7), np.uint64(2**63), 4.0, np.float32(2.0),
              1.5, float("inf"), float("nan"), True, np.bool_(True), "3", None, [1]],
)
def test_files_and_the_api_share_one_integer_rule(value):
    try:
        expected = _integer(value, "x")
    except ValidationError as exc:
        with pytest.raises(ParseError, match=re.escape(str(exc))):
            _file_integer(value, "x")
    else:
        got = _file_integer(value, "x")
        assert got == expected and type(got) is int and type(expected) is int
