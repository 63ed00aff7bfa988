"""Command execution and report plumbing shared by the CLI and tests.

A Report captures everything a command produced.  Wall-clock timings are
kept on the object for the text renderer but never enter the JSON
encoding, so report payloads are byte-stable across runs.
"""

from __future__ import annotations

import cmath
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import builders
from .chain_models import (
    Cochain,
    GradedCochainComplex,
    SimplicialComplex,
    coboundary_matrices,
    twisted_differential,
)
from .circle_bundle import (
    DUALITY_TOL,
    BundleData,
    build_invariant_complex,
    deformation_experiment,
    gram_scale_path,
    t_dualize,
    verify_t_duality,
)
from .errors import ParseError, UnknownBuilder, ValidationError
from .serialize import (
    REPORT_SCHEMA,
    canonical_bytes,
    decode_model,
    digest,
    encode_bundle,
    encode_complex,
    load_json_file,
)
from .torsion_engine import (
    cohomology_dimensions,
    reidemeister_torsion,
    twisted_cohomology_dimensions,
    twisted_torsion,
)

__all__ = [
    "RunOptions",
    "Report",
    "COMMANDS",
    "load_model",
    "load_bundle",
    "parse_flux",
    "run",
    "emit",
    "parse_report",
]

@dataclass(frozen=True)
class RunOptions:
    flux: str = "zero"
    radius: float | None = None
    kernel_tol: float | None = None
    seed: int | None = None
    steps: int = 8


@dataclass(frozen=True)
class Report:
    command: str
    model: str
    convention: str | None
    kernel_tol: float | None
    result: dict
    warnings: tuple[str, ...] = ()
    errors: tuple[str, ...] = ()
    timings: dict = field(default_factory=dict, compare=False)

    @property
    def ok(self) -> bool:
        return not self.errors

    def to_json(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "command": self.command,
            "model": self.model,
            "convention": self.convention,
            "kernel_tol": self.kernel_tol,
            "result": self.result,
            "warnings": list(self.warnings),
            "errors": list(self.errors),
        }


def parse_report(payload: dict) -> Report:
    if payload.get("schema") != REPORT_SCHEMA:
        raise ParseError(f"expected schema {REPORT_SCHEMA!r}, got {payload.get('schema')!r}")
    return Report(
        command=payload["command"],
        model=payload["model"],
        convention=payload.get("convention"),
        kernel_tol=payload.get("kernel_tol"),
        result=payload["result"],
        warnings=tuple(payload.get("warnings", ())),
        errors=tuple(payload.get("errors", ())),
    )


# ---------------------------------------------------------------------------
# model resolution
# ---------------------------------------------------------------------------

def _looks_like_path(text: str) -> bool:
    return text.endswith(".json") or Path(text).exists()


def load_model(text: str):
    """Resolve a model reference: a JSON file path or builder syntax."""
    if _looks_like_path(text):
        return decode_model(load_json_file(text))
    return builders.from_expression(text)


def _load_complex(text: str):
    """A cochain or simplicial model and its graded cochain complex."""
    obj = load_model(text)
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[0], SimplicialComplex):
        return obj, coboundary_matrices(obj[0], obj[1])
    if isinstance(obj, SimplicialComplex):
        return obj, coboundary_matrices(obj)
    if isinstance(obj, GradedCochainComplex):
        return obj, obj
    raise ValidationError(
        f"this command needs a cochain or simplicial model, got {type(obj).__name__}"
    )


def load_bundle(text: str, options: RunOptions | None = None) -> BundleData:
    """Resolve a bundle reference: JSON file, ``hopf(f,h2[,r])``, or
    ``random([seed[,top]])``.  --seed fills an empty ``random()`` and is
    refused with any other model; --radius overrides the fiber radius."""
    options = options or RunOptions()
    if options.seed is not None:
        # CATALOG's entry, which a tracer rebinding module names leaves alone
        try:
            _, fn, args = builders._parse_expression(text)
        except UnknownBuilder:
            fn = None
        if fn is not builders.CATALOG["random_bundle"][0] or args:
            raise ValidationError(f"--seed fills an empty random() only, not {text}")
        text = f"random({options.seed})"
    bundle = load_model(text)
    if not isinstance(bundle, BundleData):
        raise ValidationError(f"{text} does not contain bundle data")
    if options.radius is not None:
        bundle = replace(bundle, radius=options.radius, radius_inverse=None)
    return bundle


def parse_flux(spec: str | None, C: GradedCochainComplex):
    """Flux option grammar: ``zero``, ``top``, ``top(c)`` with a real or
    complex coefficient on the canonical all-ones top cochain, or a path
    to a cochain.v1 JSON file."""
    text = (spec or "zero").strip()
    if text in ("zero", "none", "0"):
        return None
    if _looks_like_path(text):
        flux = decode_model(load_json_file(text))
        if not isinstance(flux, Cochain):
            raise ValidationError(f"{text} is not a cochain.v1 file")
        return flux
    m = re.match(r"^top(?:\((.*)\))?$", text)
    if m is None:
        raise ValidationError(
            f"unknown flux spec {spec!r}; expected zero, top, or top(c)"
        )
    coeff = 1.0 + 0.0j
    if m.group(1):
        try:
            coeff = complex(m.group(1).strip().replace(" ", ""))
        except ValueError as exc:
            raise ValidationError(f"bad flux coefficient {m.group(1)!r}") from exc
        if not cmath.isfinite(coeff):
            raise ValidationError(f"flux coefficient {m.group(1)!r} is not finite")
    top = C.top
    n = C.simplicial.n(top) if C.simplicial is not None else C.dims[top]
    return Cochain(degree=top, coefficients=coeff * np.ones(n, dtype=np.complex128))


# ---------------------------------------------------------------------------
# command execution
# ---------------------------------------------------------------------------

def _digest_of_model(obj) -> str:
    if isinstance(obj, tuple):
        return digest(encode_complex(obj[0], obj[1]))
    if isinstance(obj, BundleData):
        return digest(encode_bundle(obj))
    return digest(encode_complex(obj))


def _rank_nullity_warning(kernel_dims, rank_nullity) -> tuple[str, ...]:
    """A warning when the Laplacian kernel dimensions and the rank-nullity
    cohomology dimensions, two routes to the same numbers, disagree."""
    if tuple(kernel_dims) == tuple(rank_nullity):
        return ()
    return (
        f"kernel dims {list(kernel_dims)} disagree with rank-nullity "
        f"cohomology dims {list(rank_nullity)}; the kernel tolerance may cut "
        "through the nonzero spectrum",
    )


def _torsion_report(obj, elem, dims, shown, **extra):
    """A torsion command's result, showing ``shown`` as its cohomology
    dims, its convention, and its warnings: the torsion's, and a warning
    when its kernel dims disagree with the rank-nullity ``dims``."""
    result = {"torsion": elem.to_json(), **extra, "cohomology_dims": shown,
              "model_digest": _digest_of_model(obj)}
    warnings = elem.warnings + _rank_nullity_warning(elem.kernel_dims, dims)
    return result, elem.convention_tag, warnings


def _reidemeister(model: str, options: RunOptions):
    obj, C = _load_complex(model)
    elem = reidemeister_torsion(C, kernel_tol=options.kernel_tol)
    dims = cohomology_dimensions(C)
    return _torsion_report(obj, elem, dims, list(dims))


def _twisted(model: str, options: RunOptions):
    obj, C = _load_complex(model)
    T = twisted_differential(C, parse_flux(options.flux, C))
    elem = twisted_torsion(T, kernel_tol=options.kernel_tol)
    even, odd = twisted_cohomology_dimensions(T)
    return _torsion_report(obj, elem, (even, odd), {"even": even, "odd": odd},
                           flux=options.flux or "zero")


def _bundle_torsion(model: str, options: RunOptions):
    bundle = load_bundle(model, options)
    ic = build_invariant_complex(bundle)
    elem = twisted_torsion(ic, kernel_tol=options.kernel_tol)
    even, odd = elem.kernel_dims
    return _torsion_report(bundle, elem, twisted_cohomology_dimensions(ic),
                           {"even": even, "odd": odd}, radius=bundle.radius)


def _t_dual(model: str, options: RunOptions):
    bundle = load_bundle(model, options)
    dual = t_dualize(bundle)
    payload = encode_bundle(dual)
    result = {
        "bundle": payload,
        "radius": dual.radius,
        "model_digest": _digest_of_model(bundle),
        "dual_digest": digest(payload),
    }
    return result, None, ()


def _verify_duality(model: str, options: RunOptions):
    bundle = load_bundle(model, options)
    rep = verify_t_duality(bundle, kernel_tol=options.kernel_tol)
    # T is an isomorphism of complexes onto the dual with the parities
    # swapped, so the dual's rank-nullity dims are the model's, swapped
    even, odd = twisted_cohomology_dimensions(build_invariant_complex(bundle))
    result = {
        **rep.to_json(),
        "tolerance": DUALITY_TOL,
        "passed": abs(rep.product_log) <= DUALITY_TOL,
        "model_digest": _digest_of_model(bundle),
    }
    warnings = (
        tuple(rep.torsion.warnings)
        + tuple(rep.dual_torsion.warnings)
        + _rank_nullity_warning(rep.cohomology_dims, (even, odd, odd, even))
    )
    return result, rep.torsion.convention_tag, warnings


def _deform(model: str, options: RunOptions):
    bundle = load_bundle(model, options)
    path = gram_scale_path(bundle, degree=0, factor=2.0)
    drift = deformation_experiment(path, options.steps, kernel_tol=options.kernel_tol)
    result = {
        **drift.to_json(),
        "path": "gram_scale(degree=0, factor=2.0)",
        "model_digest": _digest_of_model(bundle),
    }
    return result, None, ()


# name -> (runner, the RunOptions fields it reads); a runner maps a model
# and options to the result, convention and warnings.  The runners call
# other layers through this module's names, so a tracer that rebinds
# those names sees the calls.
COMMANDS = {
    "reidemeister": (_reidemeister, frozenset({"kernel_tol"})),
    "twisted": (_twisted, frozenset({"flux", "kernel_tol"})),
    "bundle-torsion": (_bundle_torsion, frozenset({"radius", "seed", "kernel_tol"})),
    "t-dual": (_t_dual, frozenset({"radius", "seed"})),
    "verify-duality": (_verify_duality, frozenset({"radius", "seed", "kernel_tol"})),
    "deform": (_deform, frozenset({"radius", "seed", "kernel_tol", "steps"})),
}


def run(command: str, model: str, options: RunOptions | None = None) -> Report:
    """Execute one workbench command and wrap the outcome in a Report.

    Input and model errors raise; they are the caller's problem (the CLI
    maps them to exit code 2).
    """
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    runner, _ = COMMANDS[command]
    options = options or RunOptions()
    t0 = time.perf_counter()
    result, convention, warnings = runner(model, options)
    wall = time.perf_counter() - t0
    return Report(
        command=command,
        model=model,
        convention=convention,
        kernel_tol=options.kernel_tol,
        result=result,
        warnings=tuple(warnings),
        timings={"wall_seconds": wall},
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _text_lines(report: Report) -> list[str]:
    lines = [f"torsion {report.command} {report.model}"]
    if report.convention:
        lines.append(f"  convention: {report.convention}")
    tol = "auto" if report.kernel_tol is None else repr(report.kernel_tol)
    lines.append(f"  kernel tolerance: {tol}")
    r = report.result
    if "torsion" in r and "product_log" not in r:
        t = r["torsion"]
        lines.append(f"  log tau = {t['log_scalar']!r}")
        lines.append(f"  tau = {t['scalar']!r}")
        lines.append(f"  kernel dims = {t['kernel_dims']}")
    if "product_log" in r:
        lines.append(f"  log tau = {r['torsion']['log_scalar']!r}")
        lines.append(f"  log tau_dual = {r['dual_torsion']['log_scalar']!r}")
        lines.append(f"  tau * tau_dual = {r['tau_times_tau_dual']!r}")
        lines.append(f"  |log tau + log tau_dual| = {abs(r['product_log'])!r}")
        lines.append(f"  tolerance: {r['tolerance']!r}")
        for key in ("spectral_transport_residual", "harmonic_transport_residual"):
            lines.append(f"  {key.replace('_', ' ')} = {r[key]!r}")
        lines.append(f"  verdict: {'pass' if r['passed'] else 'FAIL'}")
    if "max_abs_log_drift" in r:
        lines.append(f"  path: {r['path']}")
        lines.append(f"  parameters: {r['parameters']}")
        lines.append(f"  log scalars: {r['log_scalars']}")
        lines.append(f"  max |log drift| = {r['max_abs_log_drift']!r}")
        lines.append(f"  note: {r['note']}")
    if "cohomology_dims" in r:
        lines.append(f"  cohomology dims: {r['cohomology_dims']}")
    if report.command == "t-dual":
        lines.append(f"  dual radius = {r['radius']!r}")
        lines.append(f"  dual digest = {r['dual_digest']}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    for e in report.errors:
        lines.append(f"  error: {e}")
    if "wall_seconds" in report.timings:
        lines.append(f"  wall time: {report.timings['wall_seconds']:.3f} s")
    return lines


def emit(report: Report, fmt: str = "json") -> bytes:
    """Render a report; JSON is canonical bytes, text is for terminals."""
    if fmt == "json":
        return canonical_bytes(report.to_json())
    if fmt == "text":
        return ("\n".join(_text_lines(report)) + "\n").encode("utf-8")
    raise ValidationError(f"unknown format {fmt!r}; expected json or text")
