"""Closed-form answers the benchmark checks every operation against.

Nothing here imports torsionlab: each oracle is derived by hand from the
model, so a wrong answer from the timed path cannot also be the expected
one.  Every check returns ``(ok, rel_err)``; ``rel_err`` is None when the
check has no numeric value (kernel dimensions alone) and feeds the
``oracle_digits`` metric otherwise.
"""

from __future__ import annotations

import math

DIGITS_CAP = 16.0
VALUE_TOL = 1e-8      # relative error allowed on a torsion value
DUALITY_TOL = 1e-8    # |log tau + log tau_dual|, the package's own bound


def digits(rel_err: float) -> float:
    """-log10 of a relative error, capped at 16 (an exact answer)."""
    if rel_err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel_err))


def log_rel_err(log_value: float, expected: float) -> float:
    """Relative error of exp(log_value) against a positive expected value,
    computed in log form so large torsions do not overflow."""
    return abs(math.expm1(log_value - math.log(expected)))


def _verdict(rel_err: float, *checks: bool) -> tuple[bool, float]:
    return (rel_err <= VALUE_TOL and all(checks), rel_err)


# --- graded torsion --------------------------------------------------------

def cycle_tau(n: int) -> float:
    """A triangulated circle with n edges has torsion n (matrix-tree)."""
    return float(n)


def lens_tau(p: int, k: int) -> float:
    """|exp(2 pi i k/p) - 1|^2 for the lens space L(p,1) twisted by the
    character k, written with the cosine so it shares nothing with cmath."""
    return 2.0 - 2.0 * math.cos(2.0 * math.pi * k / p)


def sphere_dims(n: int) -> tuple[int, ...]:
    """Cohomology of the boundary of the n-simplex, an (n-1)-sphere."""
    return (1,) + (0,) * (n - 2) + (1,)


def check_cycle(n: int, log_tau: float, kernel_dims, coh_dims) -> tuple[bool, float]:
    return _verdict(
        log_rel_err(log_tau, cycle_tau(n)),
        tuple(kernel_dims) == (1, 1),
        tuple(coh_dims) == (1, 1),
    )


def check_lens(p: int, k: int, log_tau: float, kernel_dims, coh_dims) -> tuple[bool, float]:
    return _verdict(
        log_rel_err(log_tau, lens_tau(p, k)),
        tuple(kernel_dims) == (0, 0, 0, 0),
        tuple(coh_dims) == (0, 0, 0, 0),
    )


def check_sphere(n: int, kernel_dims, coh_dims) -> tuple[bool, None]:
    want = sphere_dims(n)
    return (tuple(kernel_dims) == want and tuple(coh_dims) == want, None)


# --- twisted torsion -------------------------------------------------------

def check_flux(c: complex, log_tau: float, kernel_dims, coh_dims) -> tuple[bool, float]:
    """Top flux c.h on the boundary of a simplex: tau(c.h)/tau(h) = |c|,
    and tau(h) = 1 for the all-ones top class, so tau = |c|.  The
    twisted complex is acyclic."""
    return _verdict(
        log_rel_err(log_tau, abs(c)),
        tuple(kernel_dims) == (0, 0),
        tuple(coh_dims) == (0, 0),
    )


# --- circle bundles --------------------------------------------------------

def hopf_tau(f: float, h2: float, r: float) -> float:
    """Twisted torsion of the Hopf-type model: r^2 |h2 / f|."""
    return r * r * abs(h2 / f)


def check_duality(product_log: float) -> tuple[bool, float]:
    """tau * tau_dual = 1; the relative error of the product is
    |exp(product_log) - 1|."""
    err = abs(math.expm1(product_log))
    return (abs(product_log) <= DUALITY_TOL, err)


def check_hopf(f: float, h2: float, r: float, log_tau: float,
               product_log: float) -> tuple[bool, float]:
    ok_dual, err_dual = check_duality(product_log)
    err = log_rel_err(log_tau, hopf_tau(f, h2, r))
    return (ok_dual and err <= VALUE_TOL, max(err, err_dual))


def overflow_tau(exponent: int) -> float:
    """The complex C^0 -> C^1 with delta = [[10^e]] has tau = |delta| = 10^e
    (log tau = e ln 10), far outside the range where delta^2 fits a float."""
    return 10.0 ** exponent
