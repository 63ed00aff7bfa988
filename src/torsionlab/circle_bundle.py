"""Invariant complexes of circle-bundle models and their T-duality.

A bundle model is operator-valued base data: a graded cochain complex M
together with degree +2 multiplication operators F (curvature) and H2,
a degree +3 operator H3, and a fiber radius r > 0.  Invariant cochains
on the total space are pairs (w1, w2) of base cochains, even parity
sitting in C^even(M) + C^odd(M), odd parity in C^odd(M) + C^even(M).
The total differential acts in blocks as

        [ d_H3      r^-1 F ]
        [ r H2      -d_H3  ]      with d_H3 = delta + H3,

each block being one parity block of a base family as laid out by
``chain_models.fold``, the one owner of the parity layout.  Each layout
is made once and shared: the base keeps its folded coboundary
(``GradedCochainComplex._parity``), and a model folds its H3, F and H2
and assembles its two invariant parity Gram records once
(``BundleData._folds`` and ``_invariant_grams``) and hands both to its
T-dual.  A model is checked once: its first build checks the entries of
its differential and that it squares to zero, and records the verdict
(``BundleData._checked``), which the T-dual takes with the layouts.  No
build, dual or torsion is cached: each build still assembles its
differential.

The T-dual model swaps F with H2 and inverts the radius.  The duality
map T_k(w1, w2) = ((-1)^k w2, (-1)^(k+1) w1) is a parity-shifting Gram
isometry intertwining the two differentials; its sign rule is the unique
one (up to a global sign) making the intertwining exact, and applying
the same rule on the dual side inverts it.  T is a signed permutation,
so these contracts hold exactly, entry for entry.  Torsion scalars of a
model and its dual multiply to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .chain_models import (
    MAX_MODEL_SIZE,
    _SQUARE_ZERO_TOL,
    _is_frozen,
    _made_with,
    _norm,
    _refuse_oversize,
    GradedCochainComplex,
    TwistedComplex,
    fold,
)
from .errors import (
    DualityViolation,
    FluxNotNilpotent,
    InvalidFlux,
    ParityMismatch,
    PathInvalid,
    ShapeMismatch,
    ValidationError,
)
from .spectral import GramFactor, _direct_sum
# unused here: bench/test_bench.py asserts that the span tracer wraps this binding
from .spectral import hermitian_spectrum  # noqa: F401
from .torsion_engine import TorsionElement, twisted_torsion

__all__ = [
    "BundleData",
    "InvariantComplex",
    "DualityReport",
    "DriftReport",
    "minimal_model",
    "build_invariant_complex",
    "t_dualize",
    "t_duality_matrix",
    "verify_t_duality",
    "deformation_experiment",
    "gram_scale_path",
    "hopf",
    "random_bundle",
]

_EPS = float(np.finfo(np.float64).eps)
# |log tau + log tau_dual| above this is a DualityViolation
DUALITY_TOL = 1e-8


def _normalize_ops(
    dims: Sequence[int],
    ops,
    shift: int,
    name: str,
) -> tuple[np.ndarray, ...]:
    """Pad an operator family to one block per source degree.

    ``ops[q]`` maps degree q to q+shift; missing entries become zeros and
    blocks whose target degree overflows the grading must be empty.
    Blocks come back read-only; frozen ones (``_is_frozen``) pass
    through uncopied.  A tuple this function returned, one frozen block
    of the expected shape per degree, passes through as it is, so a
    ``replace`` of a model re-normalizes its own families for free.
    """
    top = len(dims) - 1
    wants = [(dims[q + shift] if q + shift <= top else 0, n) for q, n in enumerate(dims)]
    if isinstance(ops, tuple) and len(ops) == len(wants) and all(
        isinstance(block, np.ndarray) and block.shape == want and _is_frozen(block)
        for block, want in zip(ops, wants)
    ):
        return ops
    if ops is None:
        table: dict[int, np.ndarray] = {}
    elif isinstance(ops, Mapping):
        table = {int(q): np.asarray(m) for q, m in ops.items()}
    else:
        table = {q: np.asarray(m) for q, m in enumerate(ops)}
    out = []
    for q, want in enumerate(wants):
        block = table.pop(q, None)
        if block is None:
            block = np.zeros(want)
            block.setflags(write=False)
        elif block.size == 0:
            block = block.reshape(want) if block.size == want[0] * want[1] else block
        if block.shape != want:
            raise ShapeMismatch(
                f"{name}[{q}] has shape {block.shape}, expected {want}"
            )
        if not _is_frozen(block):
            block = np.array(block)
            block.setflags(write=False)
        out.append(block)
    for q in list(table):
        leftover = np.asarray(table[q])
        if leftover.size and np.any(leftover):
            raise ShapeMismatch(f"{name}[{q}] targets a degree outside the grading")
    return tuple(out)


@dataclass(frozen=True, eq=False)
class BundleData:
    """Operator-valued circle-bundle model over a finite base complex.

    ``radius_inverse`` caches the exact inverse radius so that double
    dualization is bit-exact; it is bookkeeping, not independent data, so
    a value that is not 1/radius up to roundoff is refused.
    """

    # True once a build of this model's invariant complex passed the
    # entry and square-zero checks of TwistedComplex, or one of its
    # T-dual's did: set by that build, never by __post_init__, and handed
    # by t_dualize; a replace makes a new model, which starts without it
    _checked: ClassVar[bool] = False

    base: GradedCochainComplex
    f_op: tuple[np.ndarray, ...]
    h2_op: tuple[np.ndarray, ...]
    h3_op: tuple[np.ndarray, ...]
    radius: float
    radius_inverse: float | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.base, GradedCochainComplex):
            raise ValidationError("bundle base must be a GradedCochainComplex")
        dims = self.base.dims
        object.__setattr__(self, "f_op", _normalize_ops(dims, self.f_op, 2, "F"))
        object.__setattr__(self, "h2_op", _normalize_ops(dims, self.h2_op, 2, "H2"))
        object.__setattr__(self, "h3_op", _normalize_ops(dims, self.h3_op, 3, "H3"))
        r = float(self.radius)
        if not (math.isfinite(r) and r > 0):
            raise ValidationError(f"fiber radius must be positive, got {self.radius}")
        object.__setattr__(self, "radius", r)
        inv = self.radius_inverse
        if inv is not None and not abs(r * inv - 1.0) <= 4 * _EPS:  # NaN fails too
            raise ValidationError(f"radius_inverse {inv!r} is not the inverse of radius {r!r}")
        # the invariant complex scales F by 1/r, and the T-dual's radius is 1/r
        if not math.isfinite(self.inverse_radius):
            raise ValidationError(
                f"fiber radius {r!r} has no finite inverse: inverse radius 1/r = "
                f"{self.inverse_radius!r} overflows float64"
            )

    @property
    def inverse_radius(self) -> float:
        return self.radius_inverse if self.radius_inverse is not None else 1.0 / self.radius

    @cached_property
    def _folds(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """H3, F and H2, each laid out on the Z2 grading by ``fold``
        (from even, from odd): folded on first use, kept read-only, and
        handed by ``t_dualize`` to the dual with F and H2 swapped.  A
        ``replace`` makes a new model, which folds its families again."""
        dims = self.base.dims
        folds = (fold(dims, self.h3_op, 3), fold(dims, self.f_op, 2), fold(dims, self.h2_op, 2))
        for pair in folds:
            for a in pair:
                a.setflags(write=False)
        return folds

    @cached_property
    def _invariant_grams(self) -> tuple[GramFactor, GramFactor] | tuple[None, None]:
        """GramFactor records of diag(G_even, G_odd) and diag(G_odd, G_even),
        the parity Grams of the invariant complexes of this model and of
        its T-dual alike, or (None, None) over a Gram-less base: assembled
        on first use from the base's ``_parity`` records and handed by
        ``t_dualize`` to the dual with the folds, so each record's
        ``lower_inverse`` is formed once per model and dual."""
        grams = self.base._parity[1]
        if grams is None:
            return None, None
        even, odd = grams
        return _direct_sum((even, odd)), _direct_sum((odd, even))


@dataclass(frozen=True, eq=False)
class InvariantComplex(TwistedComplex):
    """Z2-graded complex of invariant cochains, with its slot split."""

    base_even_dim: int
    base_odd_dim: int


def minimal_model(
    dims: Sequence[int],
    gram: Sequence[np.ndarray] | None = None,
) -> GradedCochainComplex:
    """Zero-differential complex with the given dimension vector."""
    dims = tuple(int(n) for n in dims)
    cob = tuple(np.zeros((dims[p + 1], dims[p])) for p in range(len(dims) - 1))
    return GradedCochainComplex(dims=dims, coboundary=cob, gram=None if gram is None else tuple(gram))


def _closure_residuals(d_h3, f, h2) -> dict[str, float]:
    (b_eo, b_oe), (f_ee, f_oo), (h2_ee, h2_oo) = d_h3, f, h2
    return {
        "dH3^2 + F.H2 (even source)": _norm(b_oe @ b_eo + f_ee @ h2_ee),
        "dH3^2 + H2.F (even source)": _norm(b_oe @ b_eo + h2_ee @ f_ee),
        "dH3^2 + F.H2 (odd source)": _norm(b_eo @ b_oe + f_oo @ h2_oo),
        "dH3^2 + H2.F (odd source)": _norm(b_eo @ b_oe + h2_oo @ f_oo),
        "[dH3, F] (even source)": _norm(b_eo @ f_ee - f_oo @ b_eo),
        "[dH3, F] (odd source)": _norm(b_oe @ f_oo - f_ee @ b_oe),
        "[H2, dH3] (even source)": _norm(h2_oo @ b_eo - b_eo @ h2_ee),
        "[H2, dH3] (odd source)": _norm(h2_ee @ b_oe - b_oe @ h2_oo),
    }


def build_invariant_complex(b: BundleData) -> InvariantComplex:
    """Assemble the invariant-cochain complex of a bundle model.

    Every build assembles the differential afresh, from layouts made
    once: the base's folded coboundary (``GradedCochainComplex._parity``),
    the model's folded families and invariant parity Gram records
    (``BundleData._folds`` and ``_invariant_grams``, shared with its
    T-dual), the records direct sums of the base's checked Grams, so no
    Gram is checked or factored again.  The first build of a model
    checks every entry and that the differential squares to zero, and
    on success records it (``BundleData._checked``); a build of a
    recorded model only assembles.  Raises InvalidFlux naming the
    failing block identity when the assembled differential does not
    square to zero; a failed check records nothing.
    """
    C = b.base
    (delta_eo, delta_oe), _ = C._parity
    (h3_eo, h3_oe), f, h2 = b._folds
    # (from even, from odd) pairs of d_H3 = delta + H3, F and H2
    d_h3 = (delta_eo + h3_eo, delta_oe + h3_oe)
    (b_eo, b_oe), (f_ee, f_oo), (h2_ee, h2_oo) = d_h3, f, h2
    r = b.radius
    rinv = b.inverse_radius

    o, e = b_eo.shape

    # filled block by block: on models this small, np.block's overhead
    # would be about a third of the build
    dtype = np.result_type(b_eo, f_ee, h2_ee)
    d_even = np.empty((o + e, e + o), dtype=dtype)
    d_odd = np.empty((e + o, o + e), dtype=dtype)
    # r and 1/r are finite, so a scaled entry that overflows is inf, which
    # the complex's entry check refuses
    with np.errstate(over="ignore"):
        d_even[:o, :e], d_even[:o, e:] = b_eo, rinv * f_oo
        d_even[o:, :e], d_even[o:, e:] = r * h2_ee, -b_oe
        d_odd[:e, :o], d_odd[:e, o:] = b_oe, rinv * f_ee
        d_odd[e:, :o], d_odd[e:, o:] = r * h2_oo, -b_eo
    # frozen, so the complex keeps them uncopied; it still scans them,
    # since r F and H2 / r can leave the entry range their inputs are in
    d_even.setflags(write=False)
    d_odd.setflags(write=False)

    gram_even, gram_odd = b._invariant_grams
    fields = dict(
        even_dim=e + o,
        odd_dim=o + e,
        d_even=d_even,
        d_odd=d_odd,
        gram_even=gram_even,
        gram_odd=gram_odd,
        base_even_dim=e,
        base_odd_dim=o,
    )
    if b._checked:
        return _made_with(InvariantComplex, _RECORDED, **fields)
    try:
        ic = InvariantComplex(**fields)
    except FluxNotNilpotent:
        # the bound of the square-zero check in TwistedComplex that failed
        scale = 1.0 + _norm(d_even) * _norm(d_odd)
        bound = _SQUARE_ZERO_TOL * scale
        failing = {
            name: resid
            for name, resid in _closure_residuals(d_h3, f, h2).items()
            if resid > bound
        }
        detail = ", ".join(f"{k}: {v:.3e}" for k, v in failing.items()) or "radius coupling"
        raise InvalidFlux(
            f"bundle data violates square-zero; failing identities: {detail}"
        ) from None
    vars(b)["_checked"] = True
    return ic


# what a build of a recorded model tells TwistedComplex it need not check
_RECORDED = {"_entries_checked": True, "_square_zero_checked": True}


def t_dualize(b: BundleData) -> BundleData:
    """Swap curvature with H2 and invert the radius; an exact involution.

    The dual is made from the model's normalized families and its exact
    radius pair, so nothing is validated or normalized again.  It shares
    the model's base, its family blocks, their folds (F and H2 swapped),
    its invariant Gram records and its check record: the dual's
    differential is the model's, signed and permuted, so it holds the
    same entries and squares to zero with it.  Its invariant complex is
    still built.  On a recorded model that build only assembles; on a
    new one it runs the checks, refuses the dual's failing identity,
    and on success hands the record back to the model.
    """
    h3, f, h2 = b._folds
    dual = object.__new__(BundleData)
    # the fields as __post_init__ would leave them, and the cache slots of
    # the cached_properties, seeded with the model's own
    vars(dual).update(
        base=b.base,
        f_op=b.h2_op,
        h2_op=b.f_op,
        h3_op=b.h3_op,
        radius=float(b.inverse_radius),
        radius_inverse=b.radius,
        _folds=(h3, h2, f),
        _invariant_grams=b._invariant_grams,
        _checked=b._checked,
    )
    build_invariant_complex(dual)
    vars(b)["_checked"] = True
    return dual


def _slot_dims(ic: InvariantComplex, parity: int) -> tuple[int, int]:
    if parity % 2 == 0:
        return ic.base_even_dim, ic.base_odd_dim
    return ic.base_odd_dim, ic.base_even_dim


def t_duality_matrix(ic: InvariantComplex, parity: int) -> np.ndarray:
    """Matrix of T on the parity-k invariant space.

    T_k(w1, w2) = ((-1)^k w2, (-1)^(k+1) w1), landing in the parity-(k+1)
    space of the dual model.  Applying the same rule on the dual side
    gives the inverse, so S.T = identity holds exactly.
    """
    if parity not in (0, 1):
        raise ParityMismatch(f"parity must be 0 or 1, got {parity}")
    a, b = _slot_dims(ic, parity)
    s1 = float((-1) ** parity)
    out = np.zeros((a + b, a + b))
    out[:b, a:] = s1 * np.eye(b)
    out[b:, :a] = -s1 * np.eye(a)
    return out


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Evidence record for one torsion-inversion check."""

    torsion: TorsionElement
    dual_torsion: TorsionElement
    product_log: float
    cohomology_dims: tuple[int, int, int, int]
    spectral_transport_residual: float
    harmonic_transport_residual: float

    def to_json(self) -> dict:
        return {
            "torsion": self.torsion.to_json(),
            "dual_torsion": self.dual_torsion.to_json(),
            "product_log": self.product_log,
            "tau_times_tau_dual": float(np.exp(self.product_log)),
            "cohomology_dims": {
                "even": self.cohomology_dims[0],
                "odd": self.cohomology_dims[1],
                "dual_even": self.cohomology_dims[2],
                "dual_odd": self.cohomology_dims[3],
            },
            "spectral_transport_residual": self.spectral_transport_residual,
            "harmonic_transport_residual": self.harmonic_transport_residual,
        }


def _transport_residual(ev_a: np.ndarray, ev_b: np.ndarray) -> float:
    if ev_a.size != ev_b.size:
        return float("inf")
    if ev_a.size == 0:
        return 0.0
    denom = np.maximum(np.abs(ev_a), 1e-300)
    return float(np.max(np.abs(ev_a - ev_b) / denom))


def _harmonic_residual(
    t_mat: np.ndarray,
    primal_vectors: np.ndarray,
    dual_vectors: np.ndarray,
    dual_gram: np.ndarray | None,
) -> float:
    """Containment and unitarity of the T-image of a harmonic basis in
    the dual's, in the dual Gram (None for the identity)."""
    if primal_vectors.shape[1] != dual_vectors.shape[1]:
        return float("inf")
    if primal_vectors.shape[1] == 0:
        return 0.0
    image = t_mat @ primal_vectors
    adjoint = dual_vectors.conj().T
    coords = (adjoint if dual_gram is None else adjoint @ dual_gram) @ image
    containment = float(np.linalg.norm(image - dual_vectors @ coords))
    unitary = float(np.linalg.norm(coords.conj().T @ coords - np.eye(coords.shape[1])))
    return max(containment, unitary)


def verify_t_duality(
    b: BundleData,
    *,
    kernel_tol: float | None = None,
) -> DualityReport:
    """Check the torsion-inversion theorem on one bundle model.

    Computes both torsions, the nonzero-spectrum transport between
    parities, and the harmonic comparison through the T-image.  The map
    contracts of T (intertwining, Gram isometry, inverse) are exact
    identities of the signed permutation ``t_duality_matrix`` builds, so
    no residual of them is computed here.  Raises DualityViolation when
    |log tau + log tau_dual| exceeds ``DUALITY_TOL``; that signals an
    implementation bug, not a mathematical failure.
    """
    ic = build_invariant_complex(b)
    dual = t_dualize(b)
    icd = build_invariant_complex(dual)

    tau = twisted_torsion(ic, kernel_tol=kernel_tol)
    tau_dual = twisted_torsion(icd, kernel_tol=kernel_tol)
    product_log = tau.log_scalar + tau_dual.log_scalar

    # nonzero spectra of d^+d move to the opposite parity on the dual side;
    # each is the positive spectrum of a square that one torsion solved
    transport = max(
        _transport_residual(a, b)
        for a, b in zip(tau.square_spectra, tau_dual.square_spectra[::-1])
    )

    harmonic = max(
        _harmonic_residual(
            t_duality_matrix(ic, 0), tau.harmonic_bases[0].vectors,
            tau_dual.harmonic_bases[1].vectors, icd.gram_odd,
        ),
        _harmonic_residual(
            t_duality_matrix(ic, 1), tau.harmonic_bases[1].vectors,
            tau_dual.harmonic_bases[0].vectors, icd.gram_even,
        ),
    )

    report = DualityReport(
        torsion=tau,
        dual_torsion=tau_dual,
        product_log=product_log,
        cohomology_dims=(
            tau.kernel_dims[0], tau.kernel_dims[1],
            tau_dual.kernel_dims[0], tau_dual.kernel_dims[1],
        ),
        spectral_transport_residual=transport,
        harmonic_transport_residual=harmonic,
    )
    # a kernel cut inside one spectrum but not the other breaks the
    # duality before the torsions are compared
    primal, dual_swapped = tau.kernel_dims, tau_dual.kernel_dims[::-1]
    if primal != dual_swapped:
        cut = "default" if kernel_tol is None else repr(kernel_tol)
        raise DualityViolation(
            f"kernel tolerance {cut} cuts the two spectra differently: kernel dims "
            f"(even, odd) {primal} on the model against (odd, even) {dual_swapped} on its dual"
        )
    if abs(product_log) > DUALITY_TOL:
        raise DualityViolation(
            f"log tau + log tau_dual = {product_log!r} exceeds {DUALITY_TOL}; "
            "this indicates an implementation bug"
        )
    return report


# ---------------------------------------------------------------------------
# deformation experiments
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DriftReport:
    """Observed torsion drift along a deformation path.  Measurement
    only: nothing here asserts invariance."""

    parameters: tuple[float, ...]
    log_scalars: tuple[float, ...]
    max_abs_log_drift: float
    max_rel_scalar_drift: float
    note: str = "drift is reported, not asserted"

    def to_json(self) -> dict:
        return {
            "parameters": list(self.parameters),
            "log_scalars": list(self.log_scalars),
            "scalars": [float(np.exp(v)) for v in self.log_scalars],
            "max_abs_log_drift": self.max_abs_log_drift,
            "max_rel_scalar_drift": self.max_rel_scalar_drift,
            "note": self.note,
        }


def deformation_experiment(
    path: Callable[[float], BundleData],
    steps: int,
    *,
    kernel_tol: float | None = None,
) -> DriftReport:
    """Sample a bundle path at steps+1 parameters in [0, 1] and record the
    torsion drift relative to the start.  Between 1 and ``MAX_MODEL_SIZE``
    steps are taken; any other count is refused before the first."""
    if steps < 1:
        raise PathInvalid(f"need at least one step, got {steps}")
    if steps > MAX_MODEL_SIZE:
        raise PathInvalid(f"at most {MAX_MODEL_SIZE} steps, got {steps}")
    params, logs = [], []
    for i in range(steps + 1):
        t = i / steps
        try:
            bundle = path(t)
            value = twisted_torsion(build_invariant_complex(bundle), kernel_tol=kernel_tol)
        except Exception as exc:  # noqa: BLE001 - reported with the parameter
            raise PathInvalid(f"path failed at parameter {t}: {exc}") from exc
        params.append(t)
        logs.append(value.log_scalar)
    base = logs[0]
    drift = max(abs(v - base) for v in logs)
    scalars = [math.exp(v) for v in logs]
    rel = max(abs(s - scalars[0]) / max(abs(scalars[0]), 1e-300) for s in scalars)
    return DriftReport(
        parameters=tuple(params),
        log_scalars=tuple(logs),
        max_abs_log_drift=drift,
        max_rel_scalar_drift=rel,
    )


def gram_scale_path(
    b: BundleData,
    *,
    degree: int = 0,
    factor: float = 2.0,
) -> Callable[[float], BundleData]:
    """Path scaling the degree-``degree`` base Gram from 1 to ``factor``."""
    dims = b.base.dims
    if not 0 <= degree < len(dims):
        raise PathInvalid(f"degree {degree} outside the base grading")

    def at(t: float) -> BundleData:
        s = 1.0 + (factor - 1.0) * t
        grams = [b.base.gram_at(q) for q in range(len(dims))]
        grams[degree] = s * grams[degree]
        return replace(b, base=b.base.with_gram(grams))

    return at


# ---------------------------------------------------------------------------
# bundle builders
# ---------------------------------------------------------------------------

def hopf(f: float, h2: float, r: float = 1.0) -> BundleData:
    """Hopf-type model over the minimal two-sphere base (dims 1, 0, 1).

    Curvature f * generator, H2 flux h2 * generator, no H3.  The twisted
    torsion works out to r^2 |h2 / f| when both are nonzero.
    """
    base = minimal_model((1, 0, 1))
    return BundleData(
        base=base,
        f_op={0: np.array([[f]])},
        h2_op={0: np.array([[h2]])},
        h3_op=None,
        radius=r,
    )


def random_bundle(seed: int = 0, top_degree: int = 3) -> BundleData:
    """Seeded random bundle over a wedge-of-spheres minimal base.

    Degree 0 is one-dimensional; higher degrees get 0 to 2 classes, and
    all products of positive-degree classes vanish, so the square-zero
    identities hold exactly whatever the random flux vectors are.  Grams
    are random well-conditioned SPD matrices; the radius is uniform in
    [0.5, 2].  Fully determined by the seed.
    """
    if seed < 0:
        raise ValidationError(f"bundle seed must be >= 0, got {seed}")
    if top_degree < 1:
        raise ValidationError(f"base top degree must be >= 1, got {top_degree}")
    _refuse_oversize(f"random({seed},{top_degree})", degrees=top_degree + 1)
    rng = np.random.default_rng(seed)
    dims = [1] + [int(rng.integers(0, 3)) for _ in range(top_degree)]

    grams = []
    for n in dims:
        if n == 0:
            grams.append(np.zeros((0, 0)))
            continue
        a = rng.standard_normal((n, n))
        q, _ = np.linalg.qr(a + np.eye(n))
        d = rng.uniform(0.5, 2.0, size=n)
        g = q @ np.diag(d) @ q.T
        grams.append(0.5 * (g + g.T))

    base = minimal_model(dims, gram=grams)

    def unit_column(degree: int) -> dict[int, np.ndarray]:
        if degree > top_degree or dims[degree] == 0:
            return {}
        vec = rng.standard_normal(dims[degree])
        return {0: vec.reshape(dims[degree], 1)}

    f_op = unit_column(2)
    h2_op = unit_column(2)
    h3_op = unit_column(3)
    radius = float(rng.uniform(0.5, 2.0))
    return BundleData(base=base, f_op=f_op, h2_op=h2_op, h3_op=h3_op, radius=radius)
