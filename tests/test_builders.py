"""Named model builders and the expression parser."""

import numpy as np
import pytest

from torsionlab import (
    GradedCochainComplex,
    SimplicialComplex,
    UnknownBuilder,
    ValidationError,
    coboundary_matrices,
    cohomology_dimensions,
    random_bundle,
)
from torsionlab.builders import (
    CATALOG,
    cycle,
    from_expression,
    lens,
    minimal_sphere,
    simplex_boundary,
)
from torsionlab.chain_models import MAX_MODEL_SIZE


def _euler(K: SimplicialComplex) -> int:
    return sum((-1) ** d * K.n(d) for d in range(K.dim + 1))


def test_cycle_counts_and_topology():
    for n in (3, 5, 8):
        K = cycle(n)
        assert K.n(0) == n and K.n(1) == n
        assert _euler(K) == 0
        assert cohomology_dimensions(coboundary_matrices(K)) == (1, 1)


def test_cycle_needs_three_vertices():
    with pytest.raises(ValidationError):
        cycle(2)


def test_simplex_boundary_is_a_sphere():
    K3 = simplex_boundary(3)
    assert [K3.n(d) for d in range(3)] == [4, 6, 4]
    assert _euler(K3) == 2
    assert cohomology_dimensions(coboundary_matrices(K3)) == (1, 0, 1)

    K4 = simplex_boundary(4)
    assert [K4.n(d) for d in range(4)] == [5, 10, 10, 5]
    assert _euler(K4) == 0
    assert cohomology_dimensions(coboundary_matrices(K4)) == (1, 0, 0, 1)

    with pytest.raises(ValidationError):
        simplex_boundary(1)


def test_minimal_sphere_shape():
    C = minimal_sphere(3)
    assert isinstance(C, GradedCochainComplex)
    assert C.dims == (1, 0, 0, 1)
    assert all(not d.any() for d in C.coboundary)
    assert cohomology_dimensions(C) == (1, 0, 0, 1)
    with pytest.raises(ValidationError):
        minimal_sphere(0)


def test_lens_twisted_branch():
    C = lens(5, 1, 1)
    assert C.dims == (1, 1, 1, 1)
    assert C.delta(1)[0, 0] == 0.0  # exact zero, not a tiny sum
    assert cohomology_dimensions(C) == (0, 0, 0, 0)
    # conjugate characters give conjugate coboundaries (up to rounding
    # in the exponential at the two arguments)
    assert lens(5, 1, 4).delta(0)[0, 0] == pytest.approx(
        np.conj(C.delta(0)[0, 0]), rel=1e-14
    )


def test_lens_untwisted_branch():
    C = lens(5, 1, 0)
    assert C.delta(0)[0, 0] == 0.0
    assert C.delta(1)[0, 0] == 5.0
    assert C.delta(2)[0, 0] == 0.0
    # rational coefficients: only degrees 0 and 3 survive
    assert cohomology_dimensions(C) == (1, 0, 0, 1)
    assert lens(5, 1, 5).delta(1)[0, 0] == 5.0  # k = p folds to the trivial character


def test_lens_validates_parameters():
    with pytest.raises(ValidationError):
        lens(1, 1, 0)
    with pytest.raises(ValidationError):
        lens(6, 2, 1)  # gcd(2, 6) != 1
    with pytest.raises(ValidationError):
        lens(5, 5, 1)
    assert lens(7, 3, 2) is not None  # 3 is a unit mod 7


def test_lens_uses_inverse_parameter():
    # d2 carries the character evaluated at the q-inverse power
    C = lens(7, 2, 1)
    qbar = pow(2, -1, 7)
    import cmath

    assert C.delta(2)[0, 0] == pytest.approx(
        cmath.exp(2j * cmath.pi * qbar / 7) - 1.0, rel=1e-15
    )


def test_catalog_names():
    assert set(CATALOG) == {
        "cycle", "simplex_boundary", "lens", "minimal_sphere",
        "hopf", "random", "random_bundle",
    }


def test_from_expression_round_trips():
    K = from_expression("cycle(6)")
    assert isinstance(K, SimplicialComplex) and K.n(0) == 6
    C = from_expression(" lens( 5 , 1 , 2 ) ")
    assert isinstance(C, GradedCochainComplex)
    assert from_expression("minimal_sphere(2)").dims == (1, 0, 1)


def test_from_expression_rejects_garbage():
    with pytest.raises(UnknownBuilder, match="cannot parse"):
        from_expression("cycle")
    with pytest.raises(UnknownBuilder, match="unknown model"):
        from_expression("klein(4)")
    with pytest.raises(UnknownBuilder, match="must be integers"):
        from_expression("cycle(3.5)")
    with pytest.raises(UnknownBuilder, match="bad arguments"):
        from_expression("cycle(3, 4, 5)")
    with pytest.raises(ValidationError):
        from_expression("cycle(1)")


def test_size_guard_counts_cells_and_degrees_at_the_limit():
    assert MAX_MODEL_SIZE == 8192
    # the largest models at the limit still build
    assert sum(cycle(4096).f_vector) == 8192
    assert sum(simplex_boundary(12).f_vector) == 2**13 - 2
    assert len(minimal_sphere(8191).dims) == 8192
    for build, arg, unit in [
        (cycle, 4097, "cells"),
        (simplex_boundary, 13, "cells"),
        (minimal_sphere, 8192, "degrees"),
        (lambda top: random_bundle(0, top), 8192, "degrees"),
    ]:
        with pytest.raises(ValidationError, match=f"too large to build: over 8192 {unit}"):
            build(arg)


def test_size_guard_refuses_huge_arguments_before_building():
    with pytest.raises(ValidationError, match=r"cycle\(2000000000\) is too large"):
        cycle(2_000_000_000)
    with pytest.raises(ValidationError, match="too large"):
        simplex_boundary(10**18)
