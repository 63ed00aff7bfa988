"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py --workload cli-cold --seeds 1-10 [--seconds 6]

For every end-to-end metric it prints the median over the runs, the
interquartile range as a share of the median, and that share over the
metric's bound in BENCHMARK.json.  A benchmark is steady when every
spread (set-up time aside) stays under a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                  "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                                 capture_output=True, text=True, check=False)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            host = next((ln for ln in lines if ln.startswith("host:")), "")
            runs.append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {values}\n  {host}", flush=True)
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = stats.spread(values)
            print(f"  {m['name']:16s} median {stats.median(values):<12.6g} spread {s:7.4f} "
                  f"bound {m['bound']:.2f} spread/bound {s / m['bound']:.2f}  "
                  f"min {min(values):.6g} max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
