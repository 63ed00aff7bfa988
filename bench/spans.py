"""Span tracing of torsionlab's modules from outside the package.

``Tracer.install()`` replaces every public function of each layer module
with a wrapper that records a span, and does so under every name the
package binds it to: ``hermitian_spectrum`` is imported by name into
``torsion_engine`` and ``circle_bundle``, so those bindings are wrapped
too and calls made through them are seen.  ``uninstall()`` restores the
originals, so untraced passes run the unmodified package.

A call into a layer from a different layer (or from the benchmark) opens
a span whose parent is the caller's span; calls inside one layer fold
into the open span.  Spans stay in memory until ``layers()`` sums them:
a layer's time is the duration of its spans, its self time that minus
the duration of their child spans, and its error count the exceptions
that left one of its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "builders",
    "chain_models",
    "spectral",
    "torsion_engine",
    "circle_bundle",
    "serialize",
    "workbench",
)

# Computed work model for one generalized Hermitian eigensolve of order n,
# in real flops with complex arithmetic counted as 4 real multiply-adds:
# eigh with vectors 36 n^3 (4 x 9 n^3); with a Gram, also G A and A* G
# (8 n^3 each), Cholesky (4/3 n^3), the triangular inverse (4 n^3), the
# congruence B = L* A L^-* (16 n^3) and the back-transform (8 n^3).
EIGH_FLOPS = 36.0
GRAM_EXTRA_FLOPS = 8.0 + 8.0 + 4.0 / 3.0 + 4.0 + 16.0 + 8.0
# complex128 n x n arrays touched: A and V; with a Gram also G, GA, A*G,
# L, L^-1, B and W.
EIGH_ARRAYS = 2
GRAM_EXTRA_ARRAYS = 7


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    layer: str
    name: str
    op_id: int
    start: float
    end: float = 0.0
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class LayerStats:
    s: float = 0.0
    child_s: float = 0.0
    calls: int = 0
    errors: int = 0

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


@dataclass
class Tracer:
    """Records the spans and counters of one traced pass at a time."""

    op_id: int = 0
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans = []
        self.counters = {
            "spectral.calls": 0, "spectral.max_n": 0,
            "spectral.flops_computed": 0.0, "spectral.bytes_computed": 0.0,
            "chain_models.max_dim": 0,
            "circle_bundle.verify_calls": 0, "circle_bundle.invariant_builds": 0,
            "serialize.bytes": 0,
            "workbench.run_s": 0.0, "workbench.emit_s": 0.0,
        }

    def layers(self) -> dict[str, LayerStats]:
        out = {name: LayerStats() for name in LAYERS}
        for span in self.spans:
            stats = out[span.layer]
            stats.s += span.duration
            stats.calls += 1
            stats.errors += span.error
            if span.parent_id is not None:
                parent = self.spans[span.parent_id]
                out[parent.layer].child_s += span.duration
        return out

    def functions(self) -> dict[str, tuple[int, float]]:
        """Calls and seconds per entry function, across layer boundaries."""
        out: dict[str, tuple[int, float]] = {}
        for span in self.spans:
            key = f"{span.layer}.{span.name}"
            calls, seconds = out.get(key, (0, 0.0))
            out[key] = (calls + 1, seconds + span.duration)
        return dict(sorted(out.items()))

    # -- recording ---------------------------------------------------------

    def _call(self, layer: str, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        if parent is not None and parent.layer == layer:
            result = fn(*args, **kwargs)
            self._count(layer, name, args, result, 0.0)
            return result
        span = Span(len(self.spans), parent.span_id if parent else None,
                    layer, name, self.op_id, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        self._count(layer, name, args, result, span.duration)
        return result

    def _count(self, layer: str, name: str, args, result, elapsed: float) -> None:
        c = self.counters
        if name == "hermitian_spectrum":
            n = int(args[0].shape[0])
            gram = len(args) > 1 and args[1] is not None
            c["spectral.calls"] += 1
            c["spectral.max_n"] = max(c["spectral.max_n"], n)
            c["spectral.flops_computed"] += (EIGH_FLOPS + (GRAM_EXTRA_FLOPS if gram else 0.0)) * n**3
            arrays = EIGH_ARRAYS + (GRAM_EXTRA_ARRAYS if gram else 0)
            c["spectral.bytes_computed"] += 16.0 * n * n * arrays + 8.0 * n
        elif layer == "chain_models":
            c["chain_models.max_dim"] = max(c["chain_models.max_dim"], _largest_dim(result))
        elif name == "verify_t_duality":
            c["circle_bundle.verify_calls"] += 1
        elif name == "build_invariant_complex":
            c["circle_bundle.invariant_builds"] += 1
        elif name == "canonical_bytes":
            c["serialize.bytes"] += len(result)
        elif layer == "workbench" and name in ("run", "emit"):
            c[f"workbench.{name}_s"] += elapsed

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "torsionlab" or k.startswith("torsionlab.")]
        for layer in LAYERS:
            mod = sys.modules[f"torsionlab.{layer}"]
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for target in modules:
                    for attr, value in list(vars(target).items()):
                        if value is fn:
                            self._patches.append((target, attr, fn))
                            setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, attr, fn = self._patches.pop()
            setattr(target, attr, fn)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(layer, name, fn, args, kwargs)
        return traced


def _largest_dim(obj) -> int:
    """Largest cochain dimension in what a chain_models function returned."""
    if hasattr(obj, "dims"):
        return max(obj.dims, default=0)
    if hasattr(obj, "even_dim"):
        return max(obj.even_dim, obj.odd_dim)
    if hasattr(obj, "f_vector"):
        return max(obj.f_vector, default=0)
    shape = getattr(obj, "shape", None)
    return max(shape) if shape else 0
