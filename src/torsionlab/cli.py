"""Command line front end.

Exit codes: 0 success (and every suite criterion green), 1 when the
acceptance suite has a failing criterion, 2 for input or model errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import TorsionLabError
from .workbench import COMMANDS, RunOptions, emit, run

# option -> RunOptions field; a command reads the fields its workbench
# entry names, and any other option that is given is refused rather
# than dropped
_OPTIONS = {"--flux": "flux", "--radius": "radius", "--tol": "kernel_tol",
            "--seed": "seed", "--steps": "steps"}


def _color_enabled() -> bool:
    if os.environ.get("TORSION_NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _style(text: str, code: str, enable: bool) -> str:
    return f"\x1b[{code}m{text}\x1b[0m" if enable else text


def _suite_text(report) -> str:
    enable = _color_enabled()
    seconds = report.timings.get("criterion_seconds", {})
    lines = ["torsion suite"]
    for c in report.result["criteria"]:
        tag = (
            _style("PASS", "32", enable)
            if c["passed"]
            else _style("FAIL", "31", enable)
        )
        line = f"  {tag}  {c['id']:>2}  {c['title']}: {c['detail']}"
        if c["id"] in seconds:
            line += f" ({seconds[c['id']]:.2f} s)"
        lines.append(line)
    n = len(report.result["criteria"])
    good = sum(1 for c in report.result["criteria"] if c["passed"])
    verdict = "all criteria passed" if good == n else f"{n - good} of {n} criteria failed"
    lines.append(f"  {verdict}")
    if "wall_seconds" in report.timings:
        lines.append(f"  wall time: {report.timings['wall_seconds']:.3f} s")
    return "\n".join(lines) + "\n"


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsion",
        description=(
            "Torsion invariants of finite cochain complexes: graded and "
            "flux-twisted torsion, circle-bundle models, and the duality "
            "inversion check."
        ),
    )
    parser.add_argument(
        "command",
        choices=list(COMMANDS) + ["suite"],
        help="operation to run",
    )
    parser.add_argument(
        "model",
        nargs="?",
        default=None,
        help="model file (.json) or builder expression such as cycle(12), "
        "lens(5,1,2), hopf(1,2,1), random(7,3); suite takes none",
    )
    parser.add_argument("--flux", help="zero (the default), top, top(c), or a cochain.v1 file")
    parser.add_argument("--radius", type=float, help="override the fiber radius")
    parser.add_argument("--tol", dest="kernel_tol", type=_tolerance, help="kernel tolerance override")
    parser.add_argument("--seed", type=int, help="seed of an empty random() bundle model")
    parser.add_argument("--steps", type=int, help="steps for deformation paths (default 8)")
    parser.add_argument("--format", dest="fmt", choices=("json", "text"), default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    given = {f: v for f in _OPTIONS.values() if (v := getattr(args, f)) is not None}
    # suite runs pinned models and tolerances, so it reads none
    reads = COMMANDS[args.command][1] if args.command in COMMANDS else ()
    unread = [flag for flag, f in _OPTIONS.items() if f in given and f not in reads]
    if unread:
        parser.error(f"{args.command} does not read {', '.join(unread)}")

    if args.command == "suite":
        if args.model is not None:
            parser.error("suite does not read a model")
        from .suite import run_suite

        report = run_suite()
        if args.fmt == "json":
            sys.stdout.buffer.write(emit(report, "json"))
        else:
            sys.stdout.write(_suite_text(report))
        return 0 if report.result["all_passed"] else 1

    if args.model is None:
        parser.error(f"command {args.command!r} needs a model argument")

    try:
        report = run(args.command, args.model, RunOptions(**given))
    except TorsionLabError as exc:
        print(f"torsion: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.buffer.write(emit(report, args.fmt))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
