"""torsionlab benchmark: one workload, one run, one JSON line.

    python3 bench/run.py --workload graded-large --seed 1 --seconds 6 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` the last line of standard output
holds every end-to-end metric of BENCHMARK.json, timings in reference
seconds (calibrate.py), with ``--trace 1`` every per-layer metric.  The
lines before it say what ran, on what machine, how the host's speed
scaled the timings, which percentile the tail is, and which operations
failed.  The run and every process it starts are pinned to one CPU and
run BLAS on one thread; see README.md for the workloads and the metric
definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# The reference chunks this process times (calibrate.py) must run on one
# BLAS thread, like the work they scale.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibrate  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

# The child processes of an end-to-end run, in order: two set-up-only
# workers (set-up time is their median), five import probes and four
# suite runs, spread over the run so that its medians do not all sample
# one moment of the host; "measure" is the worker that times the workload.
SCHEDULE = ("setup", "import", "suite", "import", "setup", "suite", "import",
            "measure", "suite", "import", "suite", "import")
IMPORTTIME_REPEATS = 3
REF_PROCESSES = 1      # reference processes between two child processes
CHILD_TIMEOUT_S = 150.0


class Children:
    """Runs the benchmark's child processes one at a time and times each
    in reference seconds, scaled by reference processes run just before
    and just after it; the ones after a child serve as the ones before
    the next."""

    def __init__(self, workdir: Path) -> None:
        self.env = workloads.child_env(ROOT)
        self.workdir = workdir
        self.ref = calibrate.ProcessReference(self.env, workdir)
        self.last: list[float] = []

    def _refs(self) -> list[float]:
        return [self.ref.run() for _ in range(REF_PROCESSES)]

    def ready(self) -> None:
        """Run the reference processes that precede the next child, if
        the previous child's do not already serve."""
        if not self.last:
            self.last = self._refs()

    def run(self, cmd: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[dict, float, float]:
        """Return what the process printed, its wall time in reference
        seconds, and the factor that scaled it."""
        self.ready()
        before = self.last
        t = time.perf_counter()
        obs = workloads.spawn(cmd, self.env, self.workdir, timeout)
        wall = time.perf_counter() - t
        self.last = self._refs()
        k = calibrate.scale(before + self.last, self.ref.nominal)
        return obs, wall * k, k


def worker(args, mode: str, children: Children) -> dict:
    children.ready()  # before t0: set-up time must not include them
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", str(children.workdir), "--t0", repr(time.monotonic())]
    obs, _, k = children.run(cmd)
    if obs["exit"] != 0:
        raise RuntimeError(f"worker ({mode}) exited {obs['exit']}:\n{obs['stderr'][-2000:]}")
    try:
        result = json.loads(obs["stdout"].strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise RuntimeError(f"worker ({mode}) printed no result: {exc}") from exc
    result["setup_s"] *= k
    return result


def import_probe(children: Children) -> tuple[bool, float]:
    """Wall time of a fresh ``import torsionlab``; the module must come
    from this checkout."""
    obs, wall, _ = children.run([sys.executable, "-c",
                                 "import torsionlab, sys; sys.stdout.write(torsionlab.__file__)"])
    ok = obs["exit"] == 0 and ROOT in Path(obs["stdout"].strip()).resolve().parents
    return ok, wall


def suite_probe(children: Children) -> tuple[bool, float]:
    """Wall time of ``torsion suite --format json``.  The expected outcome is
    exit 1 with only criterion 4 red (4b fails by design); all green with
    exit 0 is accepted too."""
    obs, wall, _ = children.run([sys.executable, "-m", "torsionlab.cli", "suite", "--format", "json"])
    try:
        red = [c["id"] for c in json.loads(obs["stdout"])["result"]["criteria"] if not c["passed"]]
    except (ValueError, KeyError, TypeError):
        return False, wall
    return (obs["exit"], red) in ((1, ["4"]), (0, [])), wall


def importtime_probe(children: Children) -> dict[str, float]:
    """Per-package import seconds from ``python -X importtime``.

    numpy and scipy: cumulative time of each import of the package that
    sits under neither of them, so what scipy drags in of numpy counts
    as scipy; torsionlab: the self time of its own modules.
    """
    obs, _, _ = children.run([sys.executable, "-X", "importtime", "-c", "import torsionlab"])
    if obs["exit"] != 0:
        raise RuntimeError(f"import failed:\n{obs['stderr'][-2000:]}")
    return parse_importtime(obs["stderr"])


def parse_importtime(stderr: str) -> dict[str, float]:
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip().split(".")[0], int(self_us), int(cumulative_us)))
    totals = {"import.numpy_s": 0.0, "import.scipy_s": 0.0, "import.torsionlab_self_s": 0.0}
    stack: list[tuple[int, str]] = []
    # importtime prints children before their parent; walking backwards
    # meets each parent first
    for depth, root, self_us, cumulative_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = any(r in ("numpy", "scipy") for _, r in stack)
        if root in ("numpy", "scipy") and not inside:
            totals[f"import.{root}_s"] += cumulative_us / 1e6
        if root == "torsionlab":
            totals["import.torsionlab_self_s"] += self_us / 1e6
        stack.append((depth, root))
    return totals


def machine() -> dict:
    """Where the numbers come from: nproc, CPU model, caches and the code."""
    info: dict = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                  "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    info["caches"] = caches
    info["code"] = code_identity()
    return info


def code_identity() -> str:
    """The git commit when the checkout is a repository, else a digest of
    the package sources."""
    if (ROOT / ".git").exists() and shutil.which("git"):
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "src"],
                                   capture_output=True, text=True).stdout.strip()
            return out.stdout.strip() + ("+dirty" if dirty else "")
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def end_to_end(args, workdir: Path, log) -> tuple[dict, int, int]:
    children = Children(workdir)
    setups, imports, suites = [], [], []
    for task in SCHEDULE:
        if task == "setup":
            setups.append(worker(args, "setup", children))
        elif task == "measure":
            m = worker(args, "measure", children)
        elif task == "import":
            imports.append(import_probe(children))
        else:
            suites.append(suite_probe(children))

    runs = setups + [m]
    attempted = sum(s["attempted"] for s in runs) + len(imports) + len(suites)
    failed = sum(s["failed"] for s in runs) + sum(not ok for ok, _ in imports + suites)
    probes, probes_failed = m["probes"], m["probes_failed"]
    log(f"env: {json.dumps(m.get('env'))}")
    log(f"ops: {m['ops']} in {m['passes']} whole passes, {m['elapsed_s']:.3f} s timed; "
        f"attempted {attempted} failed {failed} (incl. set-up warm-ups and import/suite probes)")
    log(f"latency: {m['latency_samples']} samples; tail is p{m['tail_percentile']:.1f}, "
        f"{m['tail_above']} samples above it")
    log(f"host: wall seconds x {m['scale']:.4f} = reference seconds (median factor); "
        f"unscaled p50 {m['raw_p50_s']:.6g} s, {m['raw_ops_per_s']:.6g} ops/s")
    if probes:
        log(f"refusal probes: {probes} run, {probes_failed} not refused as ROADMAP item 4 asks "
            "(tallied apart from failures)")
    for f in dict.fromkeys(f for s in runs for f in s["failures"]):
        log(f"not ok: {f}")
    if not all(ok for ok, _ in imports):
        log("failed: import probe")
    if not all(ok for ok, _ in suites):
        log("failed: suite outcome other than exit 1 with only criterion 4 red")
    metrics = {
        "setup_s": stats.median([s["setup_s"] for s in setups]),
        "ops_per_s": m["ops_per_s"],
        "op_p50_s": m["op_p50_s"],
        "op_tail_s": m["op_tail_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        "oracle_digits": m["digits"],
        "import_s": stats.median([w for _, w in imports]),
        "suite_s": stats.median([w for _, w in suites]),
    }
    return metrics, attempted, failed


def traced(args, workdir: Path, log) -> tuple[dict, int, int]:
    children = Children(workdir)
    t = worker(args, "trace", children)
    probes = [importtime_probe(children) for _ in range(IMPORTTIME_REPEATS)]
    metrics = dict(t["layers"])
    for key in probes[0]:
        metrics[key] = stats.median([p[key] for p in probes])
    log(f"env: {json.dumps(t.get('env'))}")
    log(f"traced passes: {t['passes']} (each after an untraced pass of the same operations)")
    for name, (calls, seconds) in t["functions"].items():
        log(f"  {name:48s} {calls:8d} calls {seconds:10.4f} s")
    for f in t["failures"]:
        log(f"not ok: {f}")
    return metrics, t["attempted"], t["failed"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "torsionlab" / "__init__.py").is_file():
        print(f"bench: no torsionlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # Every process of the run shares one core, so the reference chunks
    # time the core the work runs on: the cores of a shared host drift
    # apart in speed.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    workdir = HERE / "_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    def log(line: str) -> None:
        print(line, flush=True)

    log(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    log(f"machine: {json.dumps(machine())}")
    try:
        run = traced if args.trace else end_to_end
        values, attempted, failed = run(args, workdir, log)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"bench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    for m in wanted:
        log(f"  {m['name']:32s} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
