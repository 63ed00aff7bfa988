"""One benchmark process: set a workload up, then time it or trace it.

Started by run.py with BLAS pinned to one thread.  ``--t0`` is the
parent's CLOCK_MONOTONIC reading just before it started this process,
so the set-up time covers interpreter start, ``import torsionlab``,
input generation and the warm-up.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import oracles
import stats
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def import_package() -> SimpleNamespace:
    import torsionlab
    from torsionlab import (builders, chain_models, circle_bundle, cli, serialize,
                            spectral, torsion_engine, workbench)

    where = Path(torsionlab.__file__).resolve()
    if ROOT not in where.parents:
        raise SystemExit(f"worker: torsionlab imported from {where}, outside {ROOT}")
    return SimpleNamespace(builders=builders, chain_models=chain_models, spectral=spectral,
                           torsion_engine=torsion_engine, circle_bundle=circle_bundle,
                           serialize=serialize, workbench=workbench, cli=cli)


class Tally:
    """Outcomes of the operations run so far."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.probes = self.probes_failed = 0
        self.digits: list[float] = []
        self.failures: list[str] = []

    def run(self, op: workloads.Op) -> float:
        """Run one operation, check it, and return its latency."""
        t = time.perf_counter()
        try:
            obs = op.run()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            obs, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        if obs is not None:
            try:
                ok, err = op.check(obs)
                error = "" if ok else ("not refused" if op.probe else "wrong answer")
            except (KeyError, ValueError, TypeError, IndexError, SyntaxError) as exc:
                ok, err, error = False, None, f"unreadable output: {exc!r}"
        else:
            ok, err = False, None
        self.attempted += 1
        if op.probe:
            self.probes += 1
            self.probes_failed += not ok
        elif not ok:
            self.failed += 1
        note = f"{'refusal probe ' if op.probe else ''}{op.label}: {error}"
        if not ok and note not in self.failures and len(self.failures) < 20:
            self.failures.append(note)
        if ok and err is not None:
            self.digits.append(oracles.digits(err))
        return latency

    def to_json(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed,
            "probes": self.probes, "probes_failed": self.probes_failed,
            "digits": min(self.digits) if self.digits else None,
            "failures": self.failures,
        }


def setup(args) -> tuple[workloads.Workload, list[workloads.Op], Tally]:
    """Import the package if the workload runs in this process, generate
    the inputs from the seed and run the warm-up."""
    wl = workloads.WORKLOADS[args.workload]
    rng = random.Random(f"{args.workload}:{args.seed}")
    tally = Tally()
    tl = None
    if wl.in_process or args.mode == "trace":
        warnings.simplefilter("ignore")
        tl = import_package()
    if wl.in_process:
        ops = wl.build(rng, tl, args.workdir)
        # builders list each kind smallest first
        warm = {}
        for op in ops:
            warm.setdefault(op.kind, op)
        for op in warm.values():
            tally.run(op)
    else:
        runner = workloads.cli_replay(tl) if args.mode == "trace" else workloads.cli_process(ROOT, args.workdir)
        ops = wl.build(rng, runner, args.workdir)
    return wl, ops, tally


def measure(args, wl, ops, tally: Tally) -> dict:
    """Time the operations in closed loop, with a reference run after
    every ``wl.ref_every`` of them; each operation's latency is scaled to
    reference seconds by the mean of the two reference runs around it.
    In-process operations are scaled by the in-process chunk, CLI
    processes by the reference process (see calibrate.py)."""
    # imported here: cli-cold's set-up must not pay for numpy
    import calibrate

    if wl.in_process:
        ref = calibrate.Reference()
    else:
        ref = calibrate.ProcessReference(workloads.child_env(ROOT), args.workdir)
    raw: list[float] = []
    latencies: list[float] = []
    scales: list[float] = []
    pending: list[float] = []
    last = ref.run()

    def settle() -> None:
        nonlocal last
        now = ref.run()
        k = calibrate.scale([last, now], ref.nominal)
        latencies.extend(x * k for x in pending)
        scales.extend(k for _ in pending)
        pending.clear()
        last = now

    start = time.perf_counter()

    def done() -> bool:
        return time.perf_counter() - start >= args.seconds and len(raw) >= wl.latency_samples

    passes = 0
    while True:
        for op in ops:
            latency = tally.run(op)
            raw.append(latency)
            pending.append(latency)
            if len(raw) % wl.ref_every == 0:
                settle()
            if not wl.in_process and done():
                break
        else:
            passes += 1
        if done():
            break
    if pending:
        settle()
    elapsed = time.perf_counter() - start
    tail, pct, count = stats.tail(latencies, wl.latency_samples)
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    return {
        "ops": len(latencies), "passes": passes, "elapsed_s": elapsed,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": stats.median(latencies), "op_tail_s": tail,
        "tail_percentile": pct, "latency_samples": count,
        "tail_above": sum(x > tail for x in latencies),
        "raw_p50_s": stats.median(raw), "raw_ops_per_s": len(raw) / sum(raw),
        "scale": stats.median(scales),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _pass(ops, tally: Tally, tracer: Tracer | None) -> float:
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        tally.run(op)
    return time.perf_counter() - start


def layer_metrics(tracer: Tracer, probes_failed: int) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, layer in tracer.layers().items():
        out[f"{name}.s"] = layer.s
        out[f"{name}.self_s"] = layer.self_s
        out[f"{name}.calls"] = layer.calls
        out[f"{name}.errors"] = layer.errors
    out.update(tracer.counters)
    out["cli.refusals_failed"] = probes_failed
    return out


def trace(args, ops, tally: Tally) -> dict:
    """Alternate an untraced and a traced pass until the time is up; report
    per-pass layer numbers as medians over the traced passes."""
    tracer = Tracer()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(_pass(ops, tally, None))
        tracer.reset()
        tracer.install()
        before = tally.probes_failed
        try:
            traced.append(_pass(ops, tally, tracer))
        finally:
            tracer.uninstall()
        per_pass.append(layer_metrics(tracer, tally.probes_failed - before))
    layers = {key: stats.median([p[key] for p in per_pass]) for key in per_pass[0]}
    layers["trace.pass_s"] = stats.median(traced)
    layers["trace.overhead_ratio"] = stats.median(traced) / stats.median(plain) - 1.0
    return {"layers": layers, "passes": len(traced), "functions": tracer.functions()}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args()

    wl, ops, tally = setup(args)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "measure":
        result.update(measure(args, wl, ops, tally))
    elif args.mode == "trace":
        result.update(trace(args, ops, tally))
    if args.mode != "setup":
        result["env"] = environment()
    result.update(tally.to_json())
    sys.stdout.write(json.dumps(result) + "\n")


def environment() -> dict:
    import platform
    from importlib import metadata

    import numpy

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


if __name__ == "__main__":
    main()
