"""The benchmark's four workloads: seeded inputs, the timed operation and
the oracle each operation is checked against.

Every workload is a closed loop with a single client: the next operation
starts when the previous one has returned.  One *pass* is the seeded list
of operations below, always in the order built: an operation's latency
depends on what ran before it (buffers of its size still cached or not),
so a seeded order would let the seed move latencies.  A run repeats
passes.  Why each workload exists and which layer it exercises or
bypasses is written down in README.md.
"""

from __future__ import annotations

import ast
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One timed operation.  ``run`` does the work and returns what it
    observed; ``check`` compares that with the oracle and returns
    ``(ok, rel_err)``.  A refusal probe is tallied apart from the
    operations, see README.md."""

    kind: str
    label: str
    run: Callable[[], dict]
    check: Callable[[dict], tuple[bool, float | None]]
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    # A run has at least this many samples, and the tail percentile is the
    # one that leaves 10 of them above it (see stats.tail).
    latency_samples: int
    # In-process workloads warm up one operation of each kind, stop only
    # at the end of a pass (their operations differ 1000-fold in cost) and
    # report the worker's own peak memory.  cli-cold starts one process
    # per operation: no warm-up, since every user pays the cold start;
    # it stops at any operation, as they cost about the same and a pass
    # outlasts a run; and it reports the largest process's peak memory.
    in_process: bool
    build: Callable
    # A reference chunk (calibrate.py) runs after every this many
    # operations, about every 0.1 s or less, and scales the operations
    # between two chunks to reference seconds.
    ref_every: int


# ---------------------------------------------------------------------------
# graded-large
# ---------------------------------------------------------------------------

# Circle sizes are stratified with a +-1.5% seeded jitter: torsion time
# grows as n^3, so wider draws would let the seed, not the code, move
# latency and throughput.  With five lenses the median operation is
# cycle(200) and the tail (p74) cycle(400), each in a cluster at least
# twice as fast or slow as its neighbours.
GRADED_CYCLES = (200, 300, 400, 500, 600)
GRADED_SPHERES = (8, 9, 10)
GRADED_LENSES = 5


def _jitter(rng: random.Random, centre: int, share: float = 0.015) -> int:
    return int(round(centre * (1.0 + rng.uniform(-share, share))))


def _graded_run(tl, expr: str) -> dict:
    model = tl.builders.from_expression(expr)
    if isinstance(model, tl.chain_models.SimplicialComplex):
        model = tl.chain_models.coboundary_matrices(model)
    elem = tl.torsion_engine.reidemeister_torsion(model)
    return {
        "log_tau": elem.log_scalar,
        "kernel_dims": elem.kernel_dims,
        "coh_dims": tl.torsion_engine.cohomology_dimensions(model),
    }


def graded_large(rng: random.Random, tl, workdir: Path) -> list[Op]:
    ops = []
    for centre in GRADED_CYCLES:
        n = _jitter(rng, centre)
        ops.append(Op("cycle", f"cycle({n})", lambda e=f"cycle({n})": _graded_run(tl, e),
                      lambda o, n=n: oracles.check_cycle(n, o["log_tau"], o["kernel_dims"], o["coh_dims"])))
    for n in GRADED_SPHERES:
        e = f"simplex_boundary({n})"
        ops.append(Op("sphere", e, lambda e=e: _graded_run(tl, e),
                      lambda o, n=n: oracles.check_sphere(n, o["kernel_dims"], o["coh_dims"])))
    for _ in range(GRADED_LENSES):
        p = rng.randint(3, 12)
        k = rng.randint(1, p - 1)
        e = f"lens({p},1,{k})"
        ops.append(Op("lens", e, lambda e=e: _graded_run(tl, e),
                      lambda o, p=p, k=k: oracles.check_lens(p, k, o["log_tau"], o["kernel_dims"], o["coh_dims"])))
    return ops


# ---------------------------------------------------------------------------
# twisted-flux
# ---------------------------------------------------------------------------

# (simplex, operations per pass): the median lands inside the
# simplex_boundary(6) cluster and the tail inside simplex_boundary(8)
TWISTED_SPHERES = ((4, 3), (6, 5), (8, 2))
TWISTED_CYCLES = (90, 150, 200)


def flux_coefficient(rng: random.Random) -> complex:
    """A real or complex coefficient with modulus log-uniform in [1/4, 4],
    rounded so the same value can be written on a command line."""
    modulus = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
    if rng.random() < 0.5:
        return complex(round(rng.choice((-1.0, 1.0)) * modulus, 4), 0.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    return complex(round(modulus * math.cos(phase), 4), round(modulus * math.sin(phase), 4))


def _twisted_run(tl, expr: str, c: complex | None) -> dict:
    import numpy as np

    K = tl.builders.from_expression(expr)
    C = tl.chain_models.coboundary_matrices(K)
    flux = None
    if c is not None:
        coeffs = np.full(K.n(K.dim), c, dtype=np.complex128)
        flux = tl.chain_models.Cochain(degree=C.top, coefficients=coeffs)
    T = tl.chain_models.twisted_differential(C, flux)
    elem = tl.torsion_engine.twisted_torsion(T)
    return {
        "log_tau": elem.log_scalar,
        "kernel_dims": elem.kernel_dims,
        "coh_dims": tl.torsion_engine.twisted_cohomology_dimensions(T),
    }


def twisted_flux(rng: random.Random, tl, workdir: Path) -> list[Op]:
    ops = []
    for n, count in TWISTED_SPHERES:
        e = f"simplex_boundary({n})"
        for _ in range(count):
            c = flux_coefficient(rng)
            ops.append(Op("flux", f"{e} top({c})", lambda e=e, c=c: _twisted_run(tl, e, c),
                          lambda o, c=c: oracles.check_flux(c, o["log_tau"], o["kernel_dims"], o["coh_dims"])))
    for centre in TWISTED_CYCLES:
        n = _jitter(rng, centre)
        e = f"cycle({n})"
        # zero flux reproduces the graded torsion, tau = n
        ops.append(Op("zero-flux", f"{e} zero", lambda e=e: _twisted_run(tl, e, None),
                      lambda o, n=n: oracles.check_cycle(n, o["log_tau"], o["kernel_dims"], o["coh_dims"])))
    return ops


# ---------------------------------------------------------------------------
# bundle-fleet
# ---------------------------------------------------------------------------

BUNDLE_RANDOM = 144
BUNDLE_HOPF = 48
HOPF_FLUX = (-3.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0)


def _same_bundle(a, b) -> bool:
    import numpy as np

    if a.radius != b.radius:
        return False
    pairs = zip(a.f_op + a.h2_op + a.h3_op, b.f_op + b.h2_op + b.h3_op)
    return all(np.array_equal(x, y) for x, y in pairs)


def _bundle_run(tl, bundle) -> dict:
    cb = tl.circle_bundle
    rep = cb.verify_t_duality(bundle)
    back = cb.t_dualize(cb.t_dualize(bundle))
    return {
        "log_tau": rep.torsion.log_scalar,
        "product_log": rep.product_log,
        "back": back,
        "digest": tl.serialize.digest(tl.serialize.encode_bundle(back)),
    }


def _bundle_check(bundle, ref_digest: str, value_check) -> Callable:
    def check(o: dict) -> tuple[bool, float]:
        ok, err = value_check(o)
        return (ok and o["digest"] == ref_digest and _same_bundle(bundle, o["back"]), err)
    return check


def bundle_fleet(rng: random.Random, tl, workdir: Path) -> list[Op]:
    cb = tl.circle_bundle
    inputs = []
    for i in range(BUNDLE_RANDOM):
        # seeds above the acceptance suite's 0..99
        seed, top = rng.randrange(1000, 2**31), 3 + i % 2
        inputs.append((f"random({seed},{top})", cb.random_bundle(seed, top),
                       lambda o: oracles.check_duality(o["product_log"])))
    for _ in range(BUNDLE_HOPF):
        f, h2 = rng.choice(HOPF_FLUX), rng.choice(HOPF_FLUX)
        r = round(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), 4)
        inputs.append((f"hopf({f},{h2},{r})", cb.hopf(f, h2, r),
                       lambda o, f=f, h2=h2, r=r: oracles.check_hopf(f, h2, r, o["log_tau"], o["product_log"])))
    ops = []
    for label, bundle, value_check in inputs:
        ref = tl.serialize.digest(tl.serialize.encode_bundle(bundle))
        ops.append(Op(label.split("(")[0], label, lambda b=bundle: _bundle_run(tl, b),
                      _bundle_check(bundle, ref, value_check)))
    return ops


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

UNKNOWN_BUILDERS = ("torus", "klein_bottle", "projective_plane", "genus_surface")
OVERFLOW_EXPONENT = 160


@dataclass(frozen=True)
class CliCase:
    kind: str
    argv: tuple[str, ...]
    check: Callable[[dict], tuple[bool, float | None]]
    probe: bool = False


def _text_value(stdout: str, key: str, sep: str = " = ") -> str:
    """The value on the ``key = value`` line of the text report."""
    for line in stdout.splitlines():
        name, found, value = line.strip().partition(sep)
        if found and name == key:
            return value
    raise KeyError(key)


def _ran(obs: dict) -> bool:
    return obs["exit"] == 0 and "Traceback" not in obs["stderr"]


def _refused(obs: dict) -> bool:
    errors = [ln for ln in obs["stderr"].splitlines() if ln.startswith("torsion: error:")]
    return obs["exit"] == 2 and "Traceback" not in obs["stderr"] and len(errors) == 1


def _log_tau(obs: dict, fmt: str) -> tuple[float, list]:
    if fmt == "json":
        t = json.loads(obs["stdout"])["result"]["torsion"]
        return t["log_scalar"], t["kernel_dims"]
    return (float(_text_value(obs["stdout"], "log tau")),
            ast.literal_eval(_text_value(obs["stdout"], "kernel dims")))


def _torsion_case(kind: str, argv: list[str], fmt: str, expected: float, dims: list) -> CliCase:
    def check(obs: dict):
        if not _ran(obs):
            return (False, None)
        log_tau, kernel = _log_tau(obs, fmt)
        err = oracles.log_rel_err(log_tau, expected)
        return (err <= oracles.VALUE_TOL and list(kernel) == dims, err)
    return CliCase(kind, tuple(argv + ["--format", fmt]), check)


def _tdual_case(model: str, fmt: str, r: float) -> CliCase:
    def check(obs: dict):
        if not _ran(obs):
            return (False, None)
        if fmt == "json":
            radius = json.loads(obs["stdout"])["result"]["radius"]
        else:
            radius = float(_text_value(obs["stdout"], "dual radius"))
        err = abs(radius * r - 1.0)
        return (err <= oracles.VALUE_TOL, err)
    return CliCase("t-dual", ("t-dual", model, "--format", fmt), check)


def _verify_case(model: str, fmt: str) -> CliCase:
    def check(obs: dict):
        if not _ran(obs):
            return (False, None)
        if fmt == "json":
            r = json.loads(obs["stdout"])["result"]
            passed, product = r["passed"], r["product_log"]
        else:
            passed = "verdict: pass" in obs["stdout"]
            product = float(_text_value(obs["stdout"], "|log tau + log tau_dual|"))
        ok, err = oracles.check_duality(product)
        return (ok and passed, err)
    return CliCase("verify-duality", ("verify-duality", model, "--format", fmt), check)


def _deform_case(model: str, fmt: str, steps: int, expected: float) -> CliCase:
    def check(obs: dict):
        if not _ran(obs):
            return (False, None)
        if fmt == "json":
            logs = json.loads(obs["stdout"])["result"]["log_scalars"]
        else:
            logs = ast.literal_eval(_text_value(obs["stdout"], "log scalars", ": "))
        err = oracles.log_rel_err(logs[0], expected)
        return (err <= oracles.VALUE_TOL and len(logs) == steps + 1, err)
    return CliCase("deform", ("deform", model, "--steps", str(steps), "--format", fmt), check)


def _refusal_case(kind: str, argv: list[str], fmt: str,
                  accepted_tau: float | None = None) -> CliCase:
    """Bad input must be refused with exit 2 and one ``torsion: error:``
    line; where a right answer exists it is accepted instead."""
    def check(obs: dict):
        if _refused(obs):
            return (True, None)
        if accepted_tau is not None and _ran(obs):
            log_tau, _ = _log_tau(obs, fmt)
            err = oracles.log_rel_err(log_tau, accepted_tau)
            return (err <= oracles.VALUE_TOL, err)
        return (False, None)
    return CliCase(kind, tuple(argv + ["--format", fmt]), check, probe=True)


def _write_model(path: Path, entry: float) -> None:
    payload = {"schema": "complex.v1", "kind": "cochain", "dims": [1, 1],
               "coboundary": [[[[entry, 0.0]]]]}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def cli_matrix(rng: random.Random, workdir: Path) -> list[CliCase]:
    """The six commands on small models in both formats, then the five
    refusal inputs of ROADMAP item 4."""
    cases = []
    for fmt in ("text", "json"):
        n = rng.randint(5, 40)
        c = flux_coefficient(rng)
        c_text = repr(c.real) if c.imag == 0.0 else f"{c.real}{c.imag:+}j"
        f, h2 = rng.choice(HOPF_FLUX), rng.choice(HOPF_FLUX)
        r = round(math.exp(rng.uniform(math.log(0.25), math.log(4.0))), 4)
        hopf_model = f"hopf({f},{h2},{r})"
        random_model = f"random({rng.randrange(1000, 2**31)},{rng.choice((3, 4))})"
        steps = rng.randint(2, 6)
        cases.append(_torsion_case("reidemeister", ["reidemeister", f"cycle({n})"], fmt,
                                   oracles.cycle_tau(n), [1, 1]))
        cases.append(_torsion_case("twisted", ["twisted", "simplex_boundary(4)", "--flux", f"top({c_text})"],
                                   fmt, abs(c), [0, 0]))
        cases.append(_torsion_case("bundle-torsion", ["bundle-torsion", hopf_model], fmt,
                                   oracles.hopf_tau(f, h2, r), [0, 0]))
        cases.append(_tdual_case(hopf_model, fmt, r))
        cases.append(_verify_case(random_model, fmt))
        cases.append(_deform_case(hopf_model, fmt, steps, oracles.hopf_tau(f, h2, r)))

    fmt = lambda: rng.choice(("text", "json"))  # noqa: E731
    nan_model = workdir / "nan-model.json"
    _write_model(nan_model, float("nan"))
    overflow_model = workdir / "overflow-model.json"
    _write_model(overflow_model, float(10 ** OVERFLOW_EXPONENT))
    cases += [
        _refusal_case("missing-file", ["reidemeister", str(workdir / f"missing-{rng.randrange(10**6)}.json")], fmt()),
        _refusal_case("nan-model", ["reidemeister", str(nan_model)], fmt()),
        _refusal_case("negative-tol", ["reidemeister", f"cycle({rng.randint(5, 40)})", "--tol", "-1"], fmt()),
        _refusal_case("overflow", ["reidemeister", str(overflow_model)], fmt(),
                      accepted_tau=oracles.overflow_tau(OVERFLOW_EXPONENT)),
        _refusal_case("unknown-builder", ["reidemeister", f"{rng.choice(UNKNOWN_BUILDERS)}({rng.randint(2, 9)})"],
                      fmt()),
    ]
    return cases


def child_env(root: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts: the checkout's
    src first on the path, and BLAS pinned to one thread."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TORSION_NO_COLOR"] = "1"
    return env


def spawn(cmd: list[str], env: dict, cwd: Path, timeout: float) -> dict:
    """Run one process to completion in its own session; on timeout kill
    the whole group and wait for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return {"exit": None, "stdout": out.decode("utf-8", "replace"),
                "stderr": err.decode("utf-8", "replace") + "\ntimed out"}
    return {"exit": proc.returncode, "stdout": out.decode("utf-8", "replace"),
            "stderr": err.decode("utf-8", "replace")}


def cli_process(root: Path, workdir: Path) -> Callable[[tuple[str, ...]], dict]:
    env = child_env(root)

    def run(argv: tuple[str, ...]) -> dict:
        return spawn([sys.executable, "-m", "torsionlab.cli", *argv], env, workdir, CLI_TIMEOUT_S)
    return run


def cli_replay(tl) -> Callable[[tuple[str, ...]], dict]:
    """Run the CLI entry point in this process with its streams captured,
    turning an escaping exception into the traceback and exit code 1 a
    process would show."""
    def run(argv: tuple[str, ...]) -> dict:
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        try:
            code = tl.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - the replay must go on; traceback kept
            traceback.print_exc()
            code = 1
        finally:
            out.flush()
            sys.stdout, sys.stderr = saved
        return {"exit": code, "stdout": out.buffer.getvalue().decode("utf-8"), "stderr": err.getvalue()}
    return run


def cli_cold(rng: random.Random, runner, workdir: Path) -> list[Op]:
    return [Op(case.kind, " ".join(case.argv), lambda a=case.argv: runner(a), case.check, case.probe)
            for case in cli_matrix(rng, workdir)]


WORKLOADS = {
    "graded-large": Workload(39, True, graded_large, 1),
    "twisted-flux": Workload(130, True, twisted_flux, 1),
    "bundle-fleet": Workload(192, True, bundle_fleet, 16),
    "cli-cold": Workload(20, False, cli_cold, 1),
}
